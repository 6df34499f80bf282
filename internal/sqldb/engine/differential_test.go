package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
)

// The sharded / snapshot / plan-cache / index differential: one seeded
// random read/write workload replayed on every combination of {1, 2, 4
// shards} × {locked reads, snapshot reads} × {plan cache on, off} × {owner
// indexed as (owner, bal), as (owner), not at all}. Within one index leg
// every statement's rows (in order, duplicates included — the fan-out merge
// must preserve the bag), RowsScanned, RowsAffected and error text must
// equal the 1-shard locked cached run. Across the legs everything but
// RowsScanned must be equal too — an index may only change what a
// statement costs — and RowsScanned may only fall as the index gets more
// specific. The statements are generated up front from the seed alone, so
// every configuration replays the same sequence.

type diffStmt struct {
	sql  string
	args []sqldb.Value
	scan vsScan
}

// vsScan says how a statement's result with owner unindexed relates to its
// result through an index on owner.
type vsScan int

const (
	// same: equal, row for row.
	same vsScan = iota
	// asBag: the rows come out grouped by IN-list member through an index
	// and in id order from a scan; equal as bags.
	asBag
	// unrelated: WHERE raises an error on rows only a scan evaluates (a
	// NULL owner does not short-circuit the AND); the legs are not compared.
	unrelated
)

// diffLegs are the ways owner is indexed. The two-column index is the
// index on owner, with postings ordered by bal.
var diffLegs = []string{
	"CREATE INDEX idx_acct_owner ON acct (owner, bal)",
	"CREATE INDEX idx_acct_owner ON acct (owner)",
	"",
}

// diffWorkload generates n statements over acct (pk id, indexed owner,
// unique tag, bal, kind). Key domains are small so inserts collide, updates
// and deletes hit, bal values tie within an owner, and primary-key rewrites
// move rows between shards. One id or owner in ten is spelled as a float:
// the same key, or one no INT equals (which an INSERT truncates).
func diffWorkload(seed int64, n int) []diffStmt {
	r := rand.New(rand.NewSource(seed))
	spell := func(k int64) sqldb.Value {
		switch r.Intn(20) {
		case 0:
			return float64(k)
		case 1:
			return float64(k) + 0.5
		}
		return k
	}
	id := func() sqldb.Value { return spell(int64(r.Intn(60))) }
	owner := func() sqldb.Value {
		if r.Intn(8) == 0 {
			return nil
		}
		return spell(int64(r.Intn(6)))
	}
	tag := func() sqldb.Value {
		if r.Intn(6) == 0 {
			return nil
		}
		return fmt.Sprintf("t%d", r.Intn(90))
	}
	bal := func() sqldb.Value { return int64(r.Intn(40) - 10) }
	balOrNull := func() sqldb.Value {
		if r.Intn(8) == 0 {
			return nil
		}
		return bal()
	}
	kind := func() sqldb.Value { return int64(r.Intn(3)) }
	dir := func() string { return []string{"", " DESC"}[r.Intn(2)] }
	const insert = "INSERT INTO acct (id, owner, tag, bal, kind) VALUES (?, ?, ?, ?, ?)"

	out := make([]diffStmt, 0, n+1)
	add := func(sql string, args ...sqldb.Value) { out = append(out, diffStmt{sql: sql, args: args}) }
	for len(out) < n {
		switch k := r.Intn(130); {
		case k < 22:
			add(insert, id(), owner(), tag(), balOrNull(), kind())
		case k < 26: // a later row's violation leaves the earlier rows applied
			add(insert+", (?, ?, ?, ?, ?)", id(), owner(), tag(), bal(), kind(), id(), owner(), tag(), bal(), kind())
		case k < 28: // coercion error
			add(insert, "seven", owner(), tag(), bal(), kind())
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
		case k < 69:
			add("UPDATE acct SET bal = bal - ? WHERE id = ?", bal(), id())
		case k < 75:
			add("SELECT * FROM acct WHERE id = ?", id())
		case k < 80:
			add("SELECT id, tag, bal FROM acct WHERE owner = ? AND bal > ?", owner(), bal())
		case k < 85:
			out = append(out, diffStmt{"SELECT id, owner FROM acct WHERE owner IN (?, ?, NULL)", []sqldb.Value{owner(), owner()}, asBag})
		case k < 89:
			add("SELECT id, owner FROM acct WHERE tag = ?", tag())
		case k < 92:
			add("SELECT owner, COUNT(*), SUM(bal) FROM acct GROUP BY owner")
		case k < 94:
			add("SELECT owner, COUNT(*) AS c FROM acct WHERE owner IN (?, ?, ?) GROUP BY owner ORDER BY c DESC, owner", owner(), owner(), owner())
		case k < 97:
			add("SELECT a.id, b.id, b.bal FROM acct a JOIN acct b ON b.owner = a.owner WHERE a.id = ?", id())
		case k < 100:
			add("SELECT a.id, b.tag FROM acct a JOIN acct b ON b.id = a.owner WHERE a.owner = ?", owner())

		// The ordering column moves: to another value, to NULL and back, one
		// row or a whole owner's; and the low end of a posting is deleted.
		case k < 104:
			add("UPDATE acct SET bal = ? WHERE id = ?", balOrNull(), id())
		case k < 106:
			add("UPDATE acct SET bal = NULL WHERE owner = ? AND kind = ?", owner(), kind())
		case k < 108:
			add("UPDATE acct SET bal = ? WHERE owner = ? AND bal IS NULL", bal(), owner())
		case k < 111:
			add("DELETE FROM acct WHERE owner = ? AND bal < ?", owner(), bal())
		// Reads the two-column index serves by range and by order.
		case k < 114:
			add("SELECT id, bal FROM acct WHERE owner = ? AND bal >= ?", owner(), bal())
		case k < 117:
			add("SELECT id, bal FROM acct WHERE owner = ? AND bal > ? AND bal <= ?", owner(), bal(), bal())
		case k < 119:
			add("SELECT id, bal FROM acct WHERE owner = ? ORDER BY bal"+dir(), owner())
		case k < 123:
			add(fmt.Sprintf("SELECT id, bal, kind FROM acct WHERE owner = ? ORDER BY bal%s LIMIT %d", dir(), 1+r.Intn(4)), owner())
		case k < 125:
			add(fmt.Sprintf("SELECT bal, id FROM acct WHERE owner = ? AND bal < ? ORDER BY bal%s LIMIT %d OFFSET %d", dir(), 1+r.Intn(3), r.Intn(4)), owner(), bal())
		case k < 127: // the residual filter runs before the limit counts
			add("SELECT id, bal FROM acct WHERE owner = ? AND kind = ? ORDER BY bal"+dir()+" LIMIT 1", owner(), kind())
		case k < 128:
			out = append(out, diffStmt{"SELECT id, owner, bal FROM acct WHERE owner IN (?, ?) ORDER BY bal", []sqldb.Value{owner(), owner()}, asBag})
		case k < 129: // a bound no index can use: the wrong type, every row errors
			out = append(out, diffStmt{"SELECT id FROM acct WHERE owner = ? AND bal >= ?", []sqldb.Value{owner(), "low"}, unrelated})
		default:
			add("SELECT id, bal, kind FROM acct WHERE owner = ?", owner())
		}
	}
	add("SELECT * FROM acct") // the final state
	return out
}

// diffResult is one statement's outcome: head is the error text, or the
// counts a correct index cannot change; rows the result rows in order.
type diffResult struct {
	head    string
	rows    []string
	scanned int
}

func (r diffResult) String() string {
	return fmt.Sprintf("%s scanned=%d\n%s", r.head, r.scanned, strings.Join(r.rows, "\n"))
}

// diffReplay runs the workload on a fresh database with owner indexed as
// index says (a CREATE INDEX statement, or "" for not at all), returning one
// result per statement. In snapshot mode every read runs on its own
// snapshot, and a laggard snapshot held across stretches of the
// workload keeps dead versions and stale postings around, so the locked
// write path and both read paths meet unswept garbage.
func diffReplay(t *testing.T, shards int, snapshot bool, index string, stmts []diffStmt) []diffResult {
	t.Helper()
	db := NewSharded(shards)
	s := db.NewSession()
	mustExecT(t, s, "CREATE TABLE acct (id INT PRIMARY KEY, owner INT, tag TEXT, bal INT, kind INT)")
	if index != "" {
		mustExecT(t, s, index)
	}
	mustExecT(t, s, "CREATE UNIQUE INDEX idx_acct_tag ON acct (tag)")
	laggard := db.BeginSnapshot()
	defer func() { laggard.Close() }()
	out := make([]diffResult, len(stmts))
	for i, st := range stmts {
		if i%16 == 0 {
			laggard.Close() // idempotent
			if snapshot {
				laggard = db.BeginSnapshot()
			}
		}
		var rs *sqldb.ResultSet
		var err error
		if snapshot && strings.HasPrefix(st.sql, "SELECT") {
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
			out[i].head = "error: " + err.Error()
			continue
		}
		out[i].head = fmt.Sprintf("affected=%d last=%d", rs.RowsAffected, rs.LastInsertID)
		out[i].scanned = rs.RowsScanned
		for _, row := range rs.Rows {
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = sqldb.Format(v)
			}
			out[i].rows = append(out[i].rows, strings.Join(cells, " | "))
		}
	}
	return out
}

func TestShardSnapshotCacheDifferential(t *testing.T) {
	seeds, n := 40, 400
	if testing.Short() {
		seeds = 8
	}
	errs, withRows, cheaper := 0, 0, 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		stmts := diffWorkload(seed, n)
		want := make([][]diffResult, len(diffLegs)) // per leg: 1 shard, locked, cached
		for _, cached := range []bool{true, false} {
			withCaching(t, cached, func() {
				for _, shards := range []int{1, 2, 4} {
					for _, snapshot := range []bool{false, true} {
						for leg, index := range diffLegs {
							got := diffReplay(t, shards, snapshot, index, stmts)
							if want[leg] == nil {
								want[leg] = got
								continue
							}
							for i := range got {
								if got[i].String() != want[leg][i].String() {
									t.Fatalf("seed %d, %d shards, snapshot=%v, cache=%v, index %q: statement %d %q %v\n got: %s\nwant: %s",
										seed, shards, snapshot, cached, index, i, stmts[i].sql, stmts[i].args, got[i], want[leg][i])
								}
							}
						}
					}
				}
			})
		}
		two, one, none := want[0], want[1], want[2]
		for i, st := range stmts {
			fail := func(what string) {
				t.Fatalf("seed %d, statement %d %q %v: %s\n(owner, bal): %s\n    (owner): %s\n   no index: %s",
					seed, i, st.sql, st.args, what, two[i], one[i], none[i])
			}
			if two[i].head != one[i].head || !slices.Equal(two[i].rows, one[i].rows) {
				fail("the two-column index changed the result")
			}
			bag := none[i].rows
			if st.scan == unrelated {
				continue
			}
			if st.scan == asBag {
				a, b := slices.Clone(one[i].rows), slices.Clone(bag)
				slices.Sort(a)
				slices.Sort(b)
				one[i].rows, bag = a, b
			}
			if one[i].head != none[i].head || !slices.Equal(one[i].rows, bag) {
				fail("indexing owner changed the result")
			}
			if two[i].scanned > one[i].scanned || one[i].scanned > none[i].scanned {
				fail("a more specific index scanned more rows")
			}
			if two[i].scanned < one[i].scanned {
				cheaper++
			}
		}
		for _, r := range two {
			if strings.HasPrefix(r.head, "error: ") {
				errs++
			} else if len(r.rows) > 1 {
				withRows++
			}
		}
	}
	// The workload must keep exercising both outcomes, and the two-column
	// index must keep being what answers, or the test decays into comparing
	// empty results.
	total := seeds * (n + 1)
	if errs*20 < total || withRows*10 < total || cheaper*40 < total {
		t.Fatalf("workload too tame: %d errors, %d statements with rows, %d cheaper through (owner, bal), of %d", errs, withRows, cheaper, total)
	}
	t.Logf("%d statements: %d errors, %d returned rows, %d cheaper through (owner, bal)", total, errs, withRows, cheaper)
}

// TestOrderedIndexConcurrentSnapshots runs snapshot readers against a
// two-column index while the writer appends to its postings, moves rows
// within them and deletes from their front. Inside one snapshot the ordered
// probe, the range probe and a scan that uses no index must tell the same
// story, whatever the writer and the sweep are doing meanwhile (run under
// -race in CI).
func TestOrderedIndexConcurrentSnapshots(t *testing.T) {
	db := New()
	w := db.NewSession()
	mustExecT(t, w, "CREATE TABLE q (id INT PRIMARY KEY, lane INT, seq INT)")
	mustExecT(t, w, "CREATE INDEX idx_q ON q (lane, seq)")
	const lanes, writes, readers = 3, 1500, 4

	done := make(chan struct{})
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			seqs := func(ss *SnapSession, sql string, args ...sqldb.Value) ([]sqldb.Value, error) {
				st, err := plan.ParseCached(sql)
				if err != nil {
					return nil, err
				}
				rs, _, err := ss.ExecSelect(sql, st, args, false)
				if err != nil {
					return nil, err
				}
				out := make([]sqldb.Value, len(rs.Rows))
				for i, row := range rs.Rows {
					out[i] = row[0]
				}
				return out, nil
			}
			for {
				select {
				case <-done:
					return
				default:
				}
				lane, lo := int64(r.Intn(lanes)), int64(r.Intn(writes))
				ss := db.BeginSnapshot()
				// The scan is the truth: `lane + 0` matches no index.
				truth, err := seqs(ss, "SELECT seq FROM q WHERE lane + 0 = ? ORDER BY seq", lane)
				asc, err2 := seqs(ss, "SELECT seq FROM q WHERE lane = ? ORDER BY seq LIMIT 5", lane)
				desc, err3 := seqs(ss, "SELECT seq FROM q WHERE lane = ? ORDER BY seq DESC LIMIT 1", lane)
				tail, err4 := seqs(ss, "SELECT seq FROM q WHERE lane = ? AND seq >= ? ORDER BY seq", lane, lo)
				ss.Close()
				if err := errors.Join(err, err2, err3, err4); err != nil {
					errs <- err
					return
				}
				from := sort.Search(len(truth), func(i int) bool { return truth[i].(int64) >= lo })
				if !slices.Equal(asc, truth[:min(5, len(truth))]) ||
					!slices.Equal(desc, truth[max(len(truth)-1, 0):]) ||
					!slices.Equal(tail, truth[from:]) {
					errs <- fmt.Errorf("reader %d, lane %d: one snapshot, four answers:\nscan %v\nfirst 5 %v\nlast %v\nseq >= %d: %v", g, lane, truth, asc, desc, lo, tail)
					return
				}
			}
		}(g)
	}

	r := rand.New(rand.NewSource(9))
	for i := int64(1); i <= writes; i++ {
		switch k := r.Intn(10); {
		case k < 6: // append at the tail of a lane's postings
			mustExecT(t, w, "INSERT INTO q (id, lane, seq) VALUES (?, ?, ?)", i, int64(r.Intn(lanes)), i)
		case k < 8: // move a row: posted twice until the sweep
			mustExecT(t, w, "UPDATE q SET seq = ? WHERE id = ?", int64(r.Intn(writes)), int64(1+r.Intn(int(i))))
		default: // delete from the front
			mustExecT(t, w, "DELETE FROM q WHERE lane = ? AND seq < ?", int64(r.Intn(lanes)), i-40)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
