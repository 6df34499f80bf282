#!/usr/bin/env bash
# reach.sh prints, sorted, one `file:function` line for every non-test
# function in the module that no real caller executes: the reach ledger's
# names. It builds every real caller with coverage over the whole module,
# runs each the way CI and the docs do (the four benchmark workloads, every
# slothbench experiment, the examples, a scripted slothdb session and lazyc
# on a small program), and reads the per-function counts. Methods are
# named Recv.Name. Functions whose
# body is empty (AST marker methods such as `func (*SelectStmt) stmt() {}`)
# are skipped: there is nothing in them to run.
#
#   bash scripts/reach.sh            # names only
#   make reach                       # names merged with reach.txt's reasons
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/bin" "$work/data"

build() { go build -cover -coverpkg=repro/... -o "$work/bin/$1" "$2"; }
build slothbench ./cmd/slothbench
build benchmark ./benchmark
build slothdb ./cmd/slothdb
build lazyc ./cmd/lazyc
for e in quickstart issuetracker patientportal lazylang; do build "$e" "./examples/$e"; done

export GOCOVERDIR="$work/data"
b="$work/bin"
for w in pages_sloth pages_merge sessions_rw oltp_sloth; do
	for t in 0 1; do "$b/benchmark" --workload "$w" --seed 1 --passes 3 --trace "$t" >/dev/null; done
done
"$b/slothbench" -exp all >/dev/null
"$b/slothbench" -exp trace -traceout '' >/dev/null
"$b/slothbench" -exp faults >/dev/null
"$b/slothbench" -exp appendix -merge >/dev/null
"$b/slothbench" -exp throughput -workers 4 >/dev/null
"$b/slothbench" -exp throughput -shards 4 -workers 2 >/dev/null
"$b/slothbench" -exp faults -faults 0,0.2 -faultseed 7 >/dev/null
for e in quickstart issuetracker patientportal lazylang; do "$b/$e" >/dev/null; done
# A scripted shell session over the dialect: DDL, both index kinds, writes,
# joins, grouping, DISTINCT, ordering, a constant on the left of a
# comparison, and the statements a user gets wrong (a syntax error, an
# unterminated string, an unknown column, a value of the wrong type).
"$b/slothdb" >/dev/null 2>&1 <<'SQL'
CREATE TABLE t (id INT PRIMARY KEY, a INT, b INT, v TEXT)
CREATE TABLE u (id INT PRIMARY KEY, t_id INT, w FLOAT)
CREATE INDEX t_ab ON t (a, b)
CREATE INDEX u_t ON u (t_id)
INSERT INTO t (id, a, b, v) VALUES (1, 7, 3, 'x'), (2, 7, 1, 'y'), (3, 8, 2, NULL), (4, 8, 2, 'x')
INSERT INTO u (id, t_id, w) VALUES (1, 1, 0.5), (2, 1, 1.5), (3, 3, 2.5)
UPDATE t SET v = 'z' WHERE id = 3
SELECT id, b FROM t WHERE a = 7 ORDER BY b DESC LIMIT 2
SELECT id FROM t WHERE a = 7 AND 2 > b ORDER BY b
SELECT id FROM t WHERE 2 < b ORDER BY v
SELECT DISTINCT v FROM t
SELECT t.id, u.w FROM t JOIN u ON u.t_id = t.id WHERE t.a = 7
SELECT t.id, u.w FROM t LEFT JOIN u ON t.id = u.t_id ORDER BY t.id
SELECT a, COUNT(*) AS n, SUM(b) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY COUNT(*) DESC
SELECT v FROM t WHERE id IN (1, 3) AND v LIKE 'x%' OR b BETWEEN 1 AND 2 AND v IS NOT NULL
SELECT nope FROM t
INSERT INTO t (id, a, b, v) VALUES ('five', 1, 1, 'q')
SELEKT 1
SELECT 'oops FROM t
DELETE FROM t WHERE id = 2
SELECT * FROM t
SQL
# lazyc on a program that uses the kernel language's records, arrays,
# unary operators, equality and a write, under both semantics; then on a
# program that does not parse.
prog='fn scale(v) { let a = v * 2; return a + 1; }
fn main() {
  let u = R("SELECT v FROM t WHERE id = 1");
  let q = R("SELECT v FROM t WHERE id = 2");
  let p = {name: "ann", score: scale(col(row(u, 0), "v"))};
  let xs = [1, 2, -3];
  let i = 0;
  let sum = 0;
  while (i < len(xs)) { sum = sum + xs[i]; i = i + 1; }
  if (p.name == "ann" && !(sum != 0)) { print(0); } else { print(p.score + col(row(q, 0), "v")); }
  print(sum > 0 || p.score == 3);
  W("UPDATE t SET v = 9 WHERE id = 5");
  print(str(sum) + p.name);
}'
for mode in std lazy; do printf '%s\n' "$prog" | "$b/lazyc" -mode "$mode" >/dev/null 2>&1; done
if printf 'fn main() { let = ; }\n' | "$b/lazyc" >/dev/null 2>&1; then
	echo "reach: lazyc accepted a malformed program" >&2
	exit 1
fi
unset GOCOVERDIR

go tool covdata textfmt -i="$work/data" -o "$work/cover.out"
# `go tool cover -func` prints "repro/<path>:<line>:<tab>name<tab>pct"; the
# declaration line supplies the receiver, so methods read Recv.Name.
go tool cover -func="$work/cover.out" | awk '$NF == "0.0%" { print $1, $2 }' |
	while read -r loc name; do
		file=${loc#repro/}
		file=${file%%:*}
		line=${loc#*.go:}
		line=${line%:}
		decl=$(sed -n "${line}p" "$file")
		# An empty body on the declaration line: a marker method.
		if grep -qE '\{[[:space:]]*\}[[:space:]]*$' <<<"$decl"; then continue; fi
		recv=$(sed -nE 's/^func \([^)]*[ *]([A-Za-z0-9_]+)(\[[^]]*\])?\) .*/\1/p' <<<"$decl")
		printf '%s:%s\n' "$file" "${recv:+$recv.}$name"
	done | LC_ALL=C sort -u
