package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
)

// whereClause draws a conjunction over w's unindexed columns n (INT), x
// (FLOAT) and s (TEXT): comparisons against parameters and literals in
// both spellings, and residual conjuncts of other shapes. It returns the
// clause and, per ?, the column it meets (its last letter), which its
// argument usually matches in type.
func whereClause(r *rand.Rand) (string, []byte) {
	pick := func(opts ...string) string { return opts[r.Intn(len(opts))] }
	var params []byte
	constant := func(col string) string {
		if r.Intn(2) == 0 {
			params = append(params, col[len(col)-1])
			return "?"
		}
		return pick("1", "-1", "2.5", "0", "'a'", "'b'", "NULL")
	}
	parts := make([]string, 1+r.Intn(3))
	for i := range parts {
		col, op := pick("n", "x", "s", "w.n"), pick("=", "<>", "<", "<=", ">", ">=")
		switch r.Intn(8) {
		case 0, 1, 2:
			parts[i] = col + " " + op + " " + constant(col)
		case 3, 4:
			parts[i] = constant(col) + " " + op + " " + col
		case 5:
			parts[i] = "(" + col + " = " + constant(col) + " OR s " + op + " " + constant("s") + ")"
		case 6:
			parts[i] = pick("s LIKE 'a%'", "n IN (1, 2, NULL)", "x BETWEEN 0 AND 2", "n + 1 > 1", "s IS NULL")
		default:
			parts[i] = pick("zz = 1", "n = x", "NOT n = 1")
		}
	}
	return strings.Join(parts, " AND "), params
}

// whereArg draws an argument for a ? meeting column col: of col's type or
// NULL three times in four, else of any type.
func whereArg(r *rand.Rand, col byte) sqldb.Value {
	if r.Intn(4) == 0 {
		col = "nxs"[r.Intn(3)]
	}
	switch {
	case r.Intn(6) == 0:
		return nil
	case col == 'n':
		return int64(r.Intn(5) - 2)
	case col == 'x':
		return []float64{-1.5, 0, 1, 2.5}[r.Intn(4)]
	}
	return []string{"", "a", "ab", "b"}[r.Intn(4)]
}

// outcome renders a statement's result for comparison: error text, or the
// counts and rows.
func outcome(rs *sqldb.ResultSet, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "affected=%d scanned=%d", rs.RowsAffected, rs.RowsScanned)
	for _, row := range rs.Rows {
		b.WriteString("\n")
		for _, v := range row {
			b.WriteString(sqldb.Format(v) + " ")
		}
	}
	return b.String()
}

// TestWhereFilterMatchesClosureTree runs generated WHERE clauses through
// the engine twice: as written, which the plan compiles to its conjunct
// filter, and as `(clause) OR 1 = 0`, the same predicate as one residual
// conjunct that the closure tree plan.Compile builds evaluates. SELECTs on
// the latest state and on a snapshot, UPDATEs and DELETEs, on one shard
// and on two, return the same rows, counts and error text, and leave the
// same table behind.
func TestWhereFilterMatchesClosureTree(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	row := func(id int64) []sqldb.Value {
		orNull := func(v sqldb.Value) sqldb.Value {
			if r.Intn(5) == 0 {
				return nil
			}
			return v
		}
		return []sqldb.Value{id, orNull(int64(r.Intn(5) - 2)), orNull([]float64{-1.5, 0, 1, 2.5}[r.Intn(4)]),
			orNull([]string{"", "a", "ab", "b"}[r.Intn(4)])}
	}
	const insert = "INSERT INTO w (id, n, x, s, hits) VALUES (?, ?, ?, ?, 0)"
	kept, failed := 0, 0
	for _, shards := range []int{1, 2} {
		dbs := [2]*DB{NewSharded(shards), NewSharded(shards)}
		sessions := [2]*Session{dbs[0].NewSession(), dbs[1].NewSession()}
		both := func(sql string, args ...sqldb.Value) {
			for _, s := range sessions {
				mustExecT(t, s, sql, args...)
			}
		}
		both("CREATE TABLE w (id INT PRIMARY KEY, n INT, x FLOAT, s TEXT, hits INT)")
		next := int64(1)
		for ; next <= 30; next++ {
			both(insert, row(next)...)
		}
		for i := 0; i < 300; i++ {
			clause, params := whereClause(r)
			args := make([]sqldb.Value, len(params))
			if len(params) > 0 && r.Intn(8) == 0 {
				args = args[:r.Intn(len(params))] // a ? out of range
			}
			for k := range args {
				args[k] = whereArg(r, params[k])
			}
			wheres := [2]string{clause, "(" + clause + ") OR 1 = 0"}
			var got [2]string
			switch k := r.Intn(10); {
			case k < 6:
				for j, db := range dbs {
					sql := "SELECT id, n, x, s, hits FROM w WHERE " + wheres[j]
					latest := outcome(sessions[j].Exec(sql, args...))
					st, err := plan.ParseCached(sql)
					if err != nil {
						t.Fatal(err)
					}
					ss := db.BeginSnapshot()
					rs, _, err := ss.ExecSelect(sql, st, args, false)
					ss.Close()
					if onSnap := outcome(rs, err); onSnap != latest {
						t.Fatalf("%d shards, %q %v: snapshot\n%s\nlatest\n%s", shards, sql, args, onSnap, latest)
					}
					got[j] = latest
				}
			case k < 9:
				for j, s := range sessions {
					got[j] = outcome(s.Exec("UPDATE w SET hits = hits + 1 WHERE "+wheres[j], args...))
				}
			default:
				for j, s := range sessions {
					got[j] = outcome(s.Exec("DELETE FROM w WHERE "+wheres[j], args...))
				}
				both(insert, row(next)...)
				next++
			}
			if got[0] != got[1] {
				t.Fatalf("%d shards, WHERE %s %v:\nfilter:\n%s\nclosure tree:\n%s", shards, clause, args, got[0], got[1])
			}
			if strings.HasPrefix(got[0], "error: ") {
				failed++
			} else if strings.Contains(got[0], "\n") || !strings.HasPrefix(got[0], "affected=0") {
				kept++
			}
		}
		final := [2]string{}
		for j, s := range sessions {
			final[j] = outcome(s.Exec("SELECT * FROM w"))
		}
		if final[0] != final[1] {
			t.Fatalf("%d shards: the tables differ:\nfilter:\n%s\nclosure tree:\n%s", shards, final[0], final[1])
		}
	}
	if kept < 150 || failed < 30 {
		t.Fatalf("workload too tame: %d statements kept rows, %d failed, of 600", kept, failed)
	}
	t.Logf("600 statements: %d kept rows, %d failed", kept, failed)
}
