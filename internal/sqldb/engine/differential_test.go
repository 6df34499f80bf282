package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
)

// The sharded / snapshot / plan-cache differential: one seeded random
// read/write workload replayed on every combination of {1, 2, 4 shards} ×
// {locked reads, snapshot reads} × {plan cache on, off}. Every statement's
// rows (in order, duplicates included — the fan-out merge must preserve the
// bag), RowsScanned, RowsAffected and error text must equal the 1-shard
// locked cached run. The statements are generated up front from the seed
// alone, so every configuration replays the same sequence.

type diffStmt struct {
	sql  string
	args []sqldb.Value
}

// diffWorkload generates n statements over acct (pk id, indexed owner,
// unique tag, bal). Key domains are small so inserts collide, updates and
// deletes hit, and primary-key rewrites move rows between shards.
func diffWorkload(seed int64, n int) []diffStmt {
	r := rand.New(rand.NewSource(seed))
	id := func() sqldb.Value { return int64(r.Intn(60)) }
	owner := func() sqldb.Value {
		if r.Intn(8) == 0 {
			return nil
		}
		return int64(r.Intn(6))
	}
	tag := func() sqldb.Value {
		if r.Intn(6) == 0 {
			return nil
		}
		return fmt.Sprintf("t%d", r.Intn(90))
	}
	bal := func() sqldb.Value { return int64(r.Intn(200) - 50) }
	const insert = "INSERT INTO acct (id, owner, tag, bal) VALUES (?, ?, ?, ?)"

	out := make([]diffStmt, 0, n+1)
	add := func(sql string, args ...sqldb.Value) { out = append(out, diffStmt{sql, args}) }
	for len(out) < n {
		switch k := r.Intn(100); {
		case k < 22:
			add(insert, id(), owner(), tag(), bal())
		case k < 26: // a later row's violation leaves the earlier rows applied
			add(insert+", (?, ?, ?, ?)", id(), owner(), tag(), bal(), id(), owner(), tag(), bal())
		case k < 28: // coercion error
			add(insert, "seven", owner(), tag(), bal())
		case k < 34:
			add("UPDATE acct SET bal = bal + ? WHERE id = ?", bal(), id())
		case k < 39:
			add("UPDATE acct SET bal = ? WHERE owner = ? AND bal < ?", bal(), owner(), bal())
		case k < 43:
			add("UPDATE acct SET owner = ? WHERE tag = ?", owner(), tag())
		case k < 47: // unique-column rewrite
			add("UPDATE acct SET tag = ? WHERE id = ?", tag(), id())
		case k < 52: // primary-key rewrite: a cross-shard move, or a duplicate key
			add("UPDATE acct SET id = ? WHERE id = ?", id(), id())
		case k < 54: // multi-row primary-key rewrite, may fail half way
			add("UPDATE acct SET id = id + 30 WHERE owner = ?", owner())
		case k < 57:
			add("DELETE FROM acct WHERE owner = ?", owner())
		case k < 60:
			add("DELETE FROM acct WHERE id IN (?, ?, ?)", id(), id(), id())
		case k < 61:
			add("DELETE FROM acct WHERE bal < ?", int64(r.Intn(40)-50))
		case k < 64:
			add("BEGIN")
		case k < 66:
			add("COMMIT")
		case k < 69:
			add("ROLLBACK")
		case k < 75:
			add("SELECT * FROM acct WHERE id = ?", id())
		case k < 80:
			add("SELECT id, tag, bal FROM acct WHERE owner = ? AND bal > ?", owner(), bal())
		case k < 85:
			add("SELECT id, owner FROM acct WHERE owner IN (?, ?, NULL)", owner(), owner())
		case k < 89:
			add("SELECT id, owner FROM acct WHERE tag = ?", tag())
		case k < 92:
			add("SELECT owner, COUNT(*), SUM(bal) FROM acct GROUP BY owner")
		case k < 94:
			add("SELECT owner, COUNT(*) AS c FROM acct WHERE owner IN (?, ?, ?) GROUP BY owner ORDER BY c DESC, owner", owner(), owner(), owner())
		case k < 97:
			add("SELECT a.id, b.id, b.bal FROM acct a JOIN acct b ON b.owner = a.owner WHERE a.id = ?", id())
		default:
			add("SELECT a.id, b.tag FROM acct a JOIN acct b ON b.id = a.owner WHERE a.owner = ?", owner())
		}
	}
	add("SELECT * FROM acct") // the final state, whatever transaction is still open
	return out
}

// diffReplay runs the workload on a fresh database, returning one line per
// statement. In snapshot mode a read outside a transaction runs on its own
// snapshot, and a laggard snapshot held across stretches of the workload
// keeps dead versions and stale postings around, so the locked write path
// and both read paths meet unswept garbage.
func diffReplay(t *testing.T, shards int, snapshot bool, stmts []diffStmt) []string {
	t.Helper()
	db := NewSharded(shards)
	s := db.NewSession()
	mustExecT(t, s, "CREATE TABLE acct (id INT PRIMARY KEY, owner INT, tag TEXT, bal INT)")
	mustExecT(t, s, "CREATE INDEX idx_acct_owner ON acct (owner)")
	mustExecT(t, s, "CREATE UNIQUE INDEX idx_acct_tag ON acct (tag)")
	laggard := db.BeginSnapshot()
	defer func() { laggard.Close() }()
	out := make([]string, len(stmts))
	for i, st := range stmts {
		if i%16 == 0 {
			laggard.Close() // idempotent
			if snapshot {
				laggard = db.BeginSnapshot()
			}
		}
		var rs *sqldb.ResultSet
		var err error
		if snapshot && !s.InTxn() && strings.HasPrefix(st.sql, "SELECT") {
			parsed, perr := plan.ParseCached(st.sql)
			if perr != nil {
				t.Fatal(perr)
			}
			ss := db.BeginSnapshot()
			rs, _, err = ss.ExecSelect(st.sql, parsed, st.args, false)
			ss.Close()
		} else {
			rs, err = s.Exec(st.sql, st.args...)
		}
		if err != nil {
			out[i] = "error: " + err.Error()
			continue
		}
		out[i] = fmt.Sprintf("scanned=%d affected=%d last=%d\n%s", rs.RowsScanned, rs.RowsAffected, rs.LastInsertID, rs)
	}
	return out
}

func TestShardSnapshotCacheDifferential(t *testing.T) {
	seeds, n := 40, 400
	if testing.Short() {
		seeds = 8
	}
	errs, withRows := 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		stmts := diffWorkload(seed, n)
		var want []string
		for _, cached := range []bool{true, false} {
			withCaching(t, cached, func() {
				for _, shards := range []int{1, 2, 4} {
					for _, snapshot := range []bool{false, true} {
						got := diffReplay(t, shards, snapshot, stmts)
						if want == nil {
							want = got // 1 shard, locked, cached
							continue
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("seed %d, %d shards, snapshot=%v, cache=%v: statement %d %q %v\n got: %s\nwant: %s",
									seed, shards, snapshot, cached, i, stmts[i].sql, stmts[i].args, got[i], want[i])
							}
						}
					}
				}
			})
		}
		for _, line := range want {
			if strings.HasPrefix(line, "error: ") {
				errs++
			} else if strings.Count(line, "\n") > 2 {
				withRows++
			}
		}
	}
	// The workload must keep exercising both outcomes, or the test decays
	// into comparing empty results.
	total := seeds * (n + 1)
	if errs*20 < total || withRows*10 < total {
		t.Fatalf("workload too tame: %d errors, %d statements with rows, of %d", errs, withRows, total)
	}
	t.Logf("%d statements: %d errors, %d returned rows", total, errs, withRows)
}
