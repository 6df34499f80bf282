package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
)

// withCaching runs f under the given plan-cache mode, restoring after.
func withCaching(t *testing.T, on bool, f func()) {
	t.Helper()
	prev := plan.SetCaching(on)
	defer plan.SetCaching(prev)
	f()
}

// TestExecStmtDoesNotMutateArgs is the regression test for the argument
// aliasing bugfix: normalization used to write canonical values back into
// the caller's slice, an aliasing hazard once dispatch tickets retain their
// argument slices across deferred execution. Session.Exec is the engine's
// normalizing door (sqldb.NormalizeArgs copies).
func TestExecStmtDoesNotMutateArgs(t *testing.T) {
	db := New()
	s := db.NewSession()
	mustExecT(t, s, "CREATE TABLE alias_t (id INT PRIMARY KEY, score FLOAT)")
	mustExecT(t, s, "INSERT INTO alias_t (id, score) VALUES (1, 2.5)")

	args := []sqldb.Value{int(1), float32(2.5)}
	rs, err := s.Exec("SELECT id FROM alias_t WHERE id = ? AND score = ?", args...)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumRows() != 1 {
		t.Fatalf("got %d rows, want 1", rs.NumRows())
	}
	if _, ok := args[0].(int); !ok {
		t.Errorf("args[0] rewritten to %T, want the caller's original int", args[0])
	}
	if _, ok := args[1].(float32); !ok {
		t.Errorf("args[1] rewritten to %T, want the caller's original float32", args[1])
	}
}

// TestPlanCacheConcurrentSessions hammers one database's plan cache from
// many sessions under -race: identical and distinct statements, all
// answered correctly while the cache fills.
func TestPlanCacheConcurrentSessions(t *testing.T) {
	withCaching(t, true, func() {
		db := New()
		setup := db.NewSession()
		mustExecT(t, setup, "CREATE TABLE conc (id INT PRIMARY KEY, grp INT, v TEXT)")
		mustExecT(t, setup, "CREATE INDEX idx_conc_grp ON conc (grp)")
		for i := 1; i <= 64; i++ {
			mustExecT(t, setup, "INSERT INTO conc (id, grp, v) VALUES (?, ?, ?)",
				int64(i), int64(i%8), fmt.Sprintf("v%d", i))
		}

		const goroutines = 8
		const iters = 200
		var wg sync.WaitGroup
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sess := db.NewSession()
				for i := 0; i < iters; i++ {
					id := int64(i%64 + 1)
					rs, err := sess.Exec("SELECT v FROM conc WHERE id = ?", id)
					if err != nil {
						errs <- err
						return
					}
					if rs.NumRows() != 1 || rs.Rows[0][0] != fmt.Sprintf("v%d", id) {
						errs <- fmt.Errorf("goroutine %d: wrong row for id %d: %+v", g, id, rs.Rows)
						return
					}
					// A second distinct template per goroutine exercises
					// concurrent compilation alongside cache hits.
					agg, err := sess.Exec(fmt.Sprintf(
						"SELECT COUNT(*) AS n FROM conc WHERE grp = ? -- t%d", g%4), int64(i%8))
					if err != nil {
						errs <- err
						return
					}
					if agg.Rows[0][0] != int64(8) {
						errs <- fmt.Errorf("goroutine %d: COUNT = %v, want 8", g, agg.Rows[0][0])
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if s := db.PlanCache().Stats(); s.Hits == 0 {
			t.Fatalf("concurrent run recorded no cache hits: %+v", s)
		}
	})
}

// TestPlanCacheDDLInvalidation pins epoch invalidation end to end: a warm
// scan plan recompiles after CREATE INDEX and switches to the index path,
// and a statement that failed on a missing table succeeds after CREATE
// TABLE.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	withCaching(t, true, func() {
		db := New()
		s := db.NewSession()
		mustExecT(t, s, "CREATE TABLE ddl_t (id INT PRIMARY KEY, grp INT)")
		for i := 1; i <= 10; i++ {
			mustExecT(t, s, "INSERT INTO ddl_t (id, grp) VALUES (?, ?)", int64(i), int64(i%2))
		}

		const q = "SELECT id FROM ddl_t WHERE grp = ?"
		rs, err := s.Exec(q, int64(1))
		if err != nil {
			t.Fatal(err)
		}
		if rs.RowsScanned != 10 {
			t.Fatalf("pre-index scan visited %d rows, want 10", rs.RowsScanned)
		}
		// Warm the cache with a second execution.
		if _, err := s.Exec(q, int64(0)); err != nil {
			t.Fatal(err)
		}
		inv0 := db.PlanCache().Stats().Invalidations

		mustExecT(t, s, "CREATE INDEX idx_ddl_grp ON ddl_t (grp)")
		rs, err = s.Exec(q, int64(1))
		if err != nil {
			t.Fatal(err)
		}
		if rs.RowsScanned != 5 {
			t.Fatalf("post-index lookup visited %d rows, want 5", rs.RowsScanned)
		}
		if inv := db.PlanCache().Stats().Invalidations; inv <= inv0 {
			t.Fatalf("CREATE INDEX did not invalidate the cached plan (invalidations %d -> %d)", inv0, inv)
		}

		// A cached failure on a missing table must not outlive CREATE TABLE.
		const q2 = "SELECT id FROM late_t"
		if _, err := s.Exec(q2); err == nil {
			t.Fatal("want error for missing table")
		}
		if _, err := s.Exec(q2); err == nil {
			t.Fatal("want cached error for missing table")
		}
		mustExecT(t, s, "CREATE TABLE late_t (id INT PRIMARY KEY)")
		if _, err := s.Exec(q2); err != nil {
			t.Fatalf("statement still fails after CREATE TABLE: %v", err)
		}
	})
}

// equalityBattery is the statement battery for cache-on/cache-off result
// equality, covering every compiled path: access shapes, joins, aggregates,
// ordering, distinct, pagination, writes, and error surfaces.
var equalityBattery = []struct {
	sql  string
	args []sqldb.Value
}{
	{"SELECT * FROM eq_kv", nil},
	{"SELECT id, v FROM eq_kv WHERE id = ?", []sqldb.Value{int64(3)}},
	{"SELECT id, v FROM eq_kv WHERE grp IN (?, ?, 3)", []sqldb.Value{int64(1), int64(2)}},
	{"SELECT id FROM eq_kv WHERE grp = ? AND id > ?", []sqldb.Value{int64(1), int64(2)}},
	{"SELECT id FROM eq_kv WHERE id + 0 = ?", []sqldb.Value{int64(4)}},
	{"SELECT id FROM eq_kv WHERE id = ?", []sqldb.Value{nil}},
	{"SELECT k.id, t.label FROM eq_kv k JOIN eq_tags t ON t.kv_id = k.id", nil},
	{"SELECT k.id, t.label FROM eq_kv k LEFT JOIN eq_tags t ON t.kv_id = k.id ORDER BY k.id DESC", nil},
	{"SELECT COUNT(*), SUM(id), MIN(v), MAX(v), AVG(grp) FROM eq_kv", nil},
	{"SELECT grp, COUNT(*) AS n FROM eq_kv GROUP BY grp ORDER BY n DESC, grp", nil},
	{"SELECT grp, COUNT(*) AS n FROM eq_kv GROUP BY grp HAVING COUNT(*) > 1", nil},
	{"SELECT COUNT(*) FROM eq_kv WHERE grp = ?", []sqldb.Value{int64(9)}},
	{"SELECT DISTINCT grp FROM eq_kv ORDER BY grp", nil},
	{"SELECT id FROM eq_kv ORDER BY v, id LIMIT 3 OFFSET 2", nil},
	{"SELECT id FROM eq_kv WHERE v LIKE ?", []sqldb.Value{"v%"}},
	{"SELECT id FROM eq_kv WHERE grp BETWEEN ? AND ?", []sqldb.Value{int64(1), int64(2)}},
	{"SELECT id FROM eq_kv WHERE v IS NOT NULL AND NOT (grp = 1)", nil},
	{"SELECT id + grp * 2 AS c FROM eq_kv ORDER BY c", nil},
	{"INSERT INTO eq_kv (id, grp, v) VALUES (?, ?, ?)", []sqldb.Value{int64(100), int64(5), "new"}},
	{"UPDATE eq_kv SET v = ?, grp = grp + 1 WHERE id = ?", []sqldb.Value{"upd", int64(2)}},
	{"DELETE FROM eq_kv WHERE grp = ?", []sqldb.Value{int64(3)}},
	{"SELECT * FROM eq_kv ORDER BY id", nil},
	{"SELECT nope FROM eq_kv", nil},
	{"SELECT id FROM eq_missing", nil},
}

func seedEqualityDB(t *testing.T) *Session {
	t.Helper()
	db := New()
	s := db.NewSession()
	mustExecT(t, s, "CREATE TABLE eq_kv (id INT PRIMARY KEY, grp INT, v TEXT)")
	mustExecT(t, s, "CREATE INDEX idx_eq_grp ON eq_kv (grp)")
	mustExecT(t, s, "CREATE TABLE eq_tags (id INT PRIMARY KEY, kv_id INT, label TEXT)")
	mustExecT(t, s, "CREATE INDEX idx_eq_tags ON eq_tags (kv_id)")
	for i := 1; i <= 9; i++ {
		mustExecT(t, s, "INSERT INTO eq_kv (id, grp, v) VALUES (?, ?, ?)",
			int64(i), int64(i%4), fmt.Sprintf("v%d", i))
	}
	for i := 1; i <= 6; i++ {
		mustExecT(t, s, "INSERT INTO eq_tags (id, kv_id, label) VALUES (?, ?, ?)",
			int64(i), int64(i), fmt.Sprintf("t%d", i%3))
	}
	return s
}

// TestCacheOnOffEquality replays the battery against two identically
// seeded databases — plan cache on vs off — and requires identical result
// sets, row counts, scan counts, and error outcomes statement by statement.
func TestCacheOnOffEquality(t *testing.T) {
	type outcome struct {
		rs  *sqldb.ResultSet
		err error
	}
	run := func(on bool) []outcome {
		var out []outcome
		withCaching(t, on, func() {
			s := seedEqualityDB(t)
			for _, c := range equalityBattery {
				// Execute twice: the second run exercises the cached plan
				// (or a fresh compile with caching off).
				_, _ = s.Exec(c.sql, c.args...)
				rs, err := s.Exec(c.sql, c.args...)
				out = append(out, outcome{rs: rs, err: err})
			}
		})
		return out
	}
	onRes := run(true)
	offRes := run(false)
	for i, c := range equalityBattery {
		a, b := onRes[i], offRes[i]
		if (a.err == nil) != (b.err == nil) {
			t.Errorf("%q: cache-on err=%v, cache-off err=%v", c.sql, a.err, b.err)
			continue
		}
		if a.err != nil {
			if a.err.Error() != b.err.Error() {
				t.Errorf("%q: error text differs: %q vs %q", c.sql, a.err, b.err)
			}
			continue
		}
		if !reflect.DeepEqual(a.rs, b.rs) {
			t.Errorf("%q: results differ:\n cache-on:  %+v\n cache-off: %+v", c.sql, a.rs, b.rs)
		}
	}
}

func mustExecT(t *testing.T, s *Session, sql string, args ...sqldb.Value) {
	t.Helper()
	if _, err := s.Exec(sql, args...); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}
