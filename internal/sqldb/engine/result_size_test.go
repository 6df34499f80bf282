package engine

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
)

// sizedDB holds t(id, g, a) with groups of 2, 8 and 40 rows on the indexed
// column g (50 rows), and a = id % 7.
func sizedDB(t *testing.T) (*DB, *Session) {
	t.Helper()
	db := New()
	s := db.NewSession()
	mustExecT(t, s, "CREATE TABLE t (id INT PRIMARY KEY, g INT, a INT)")
	mustExecT(t, s, "CREATE INDEX idx_t_g ON t (g)")
	id := int64(0)
	for _, g := range []int64{2, 8, 40} {
		for i := int64(0); i < g; i++ {
			id++
			mustExecT(t, s, "INSERT INTO t (id, g, a) VALUES (?, ?, ?)", id, g, id%7)
		}
	}
	return db, s
}

// execPaths runs sql on the serialized session and on a snapshot session:
// the two executing contexts that own a scratch.
func execPaths(t *testing.T, db *DB, s *Session) map[string]func(sql string, args ...sqldb.Value) *sqldb.ResultSet {
	t.Helper()
	snap := db.BeginSnapshot()
	t.Cleanup(snap.Close)
	return map[string]func(string, ...sqldb.Value) *sqldb.ResultSet{
		"locked": func(sql string, args ...sqldb.Value) *sqldb.ResultSet { return query(t, s, sql, args...) },
		"snapshot": func(sql string, args ...sqldb.Value) *sqldb.ResultSet {
			t.Helper()
			st, err := plan.ParseCached(sql)
			if err != nil {
				t.Fatalf("parse %q: %v", sql, err)
			}
			rs, _, err := snap.ExecSelect(sql, st, args, false)
			if err != nil {
				t.Fatalf("snapshot %q: %v", sql, err)
			}
			return rs
		},
	}
}

// TestSelectResultsAreExactSize: a result with no rows has nil Rows, however
// it came to be empty — no match, LIMIT 0, an OFFSET past the end, DISTINCT
// or HAVING over nothing — and any other result's Rows has cap == len, so a
// LIMIT keeps none of the rows it dropped reachable.
func TestSelectResultsAreExactSize(t *testing.T) {
	db, s := sizedDB(t)
	cases := []struct {
		sql  string
		rows int
	}{
		{"SELECT id FROM t LIMIT 0", 0},
		{"SELECT id FROM t ORDER BY a LIMIT 0", 0},
		{"SELECT * FROM t LIMIT 0", 0},
		{"SELECT * FROM t WHERE g = 8 ORDER BY a LIMIT 0", 0},
		{"SELECT id FROM t WHERE a = 99", 0},
		{"SELECT id FROM t LIMIT 10 OFFSET 50", 0},
		{"SELECT id FROM t ORDER BY a OFFSET 70", 0},
		{"SELECT DISTINCT g FROM t WHERE a = 99", 0},
		{"SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 100", 0},
		{"SELECT id FROM t WHERE g = 2 LIMIT 1", 1},
		{"SELECT COUNT(*) FROM t WHERE a = 99", 1},
		{"SELECT id FROM t ORDER BY a LIMIT 3", 3},
		{"SELECT id FROM t ORDER BY a + id DESC LIMIT 3", 3},
		{"SELECT * FROM t LIMIT 5 OFFSET 2", 5},
		{"SELECT id FROM t WHERE g = 40 LIMIT 20 OFFSET 30", 10},
		{"SELECT DISTINCT g FROM t", 3},
		{"SELECT DISTINCT a FROM t ORDER BY a LIMIT 4", 4},
		{"SELECT g, COUNT(*) FROM t GROUP BY g", 3},
		{"SELECT id FROM t WHERE g = 40", 40},
		{"SELECT * FROM t", 50},
	}
	for name, run := range execPaths(t, db, s) {
		for _, c := range cases {
			rs := run(c.sql)
			switch {
			case len(rs.Rows) != c.rows:
				t.Errorf("%s %q: %d rows, want %d", name, c.sql, len(rs.Rows), c.rows)
			case c.rows == 0 && rs.Rows != nil:
				t.Errorf("%s %q: empty result has non-nil Rows (cap %d)", name, c.sql, cap(rs.Rows))
			case cap(rs.Rows) != len(rs.Rows):
				t.Errorf("%s %q: Rows has cap %d over len %d", name, c.sql, cap(rs.Rows), len(rs.Rows))
			}
		}
	}
}

// deepCopy copies a result's rows and their values.
func deepCopy(rows [][]sqldb.Value) [][]sqldb.Value {
	out := make([][]sqldb.Value, len(rows))
	for i, r := range rows {
		out[i] = append([]sqldb.Value(nil), r...)
	}
	return out
}

// TestResultsNeverAliasScratch: a result shares no memory with the scratch
// its executing context reuses. Larger SELECTs that sort, deduplicate,
// group and trim run in the same scratch after result A, and an append to
// A's Rows lands in memory of A's own: A is what it was, and so is every
// later result.
func TestResultsNeverAliasScratch(t *testing.T) {
	db, s := sizedDB(t)
	later := []string{
		"SELECT id, a FROM t ORDER BY a DESC, id",
		"SELECT DISTINCT a, g FROM t ORDER BY g, a",
		"SELECT g, COUNT(*), MAX(a) FROM t GROUP BY g ORDER BY g DESC",
		"SELECT id FROM t ORDER BY a + id LIMIT 7 OFFSET 3",
		"SELECT * FROM t WHERE g = 40 ORDER BY a, id DESC",
		"SELECT id, a FROM t WHERE g = 8",
	}
	for name, run := range execPaths(t, db, s) {
		a := run("SELECT id, a FROM t WHERE g = 8 ORDER BY a")
		wantA := deepCopy(a.Rows)
		var prev *sqldb.ResultSet
		var wantPrev [][]sqldb.Value
		for _, sql := range later {
			rs := run(sql)
			want := deepCopy(rs.Rows)
			a.Rows = append(a.Rows, []sqldb.Value{"appended"})
			if !reflect.DeepEqual(a.Rows[:len(wantA)], wantA) {
				t.Fatalf("%s: result A changed after %q:\n got %v\nwant %v", name, sql, a.Rows[:len(wantA)], wantA)
			}
			if !reflect.DeepEqual(rs.Rows, want) {
				t.Fatalf("%s %q: an append to A changed this result:\n got %v\nwant %v", name, sql, rs.Rows, want)
			}
			if prev != nil && !reflect.DeepEqual(prev.Rows, wantPrev) {
				t.Fatalf("%s: the result before %q changed:\n got %v\nwant %v", name, sql, prev.Rows, wantPrev)
			}
			prev, wantPrev = rs, want
		}
	}
}

// TestScratchKeepsNoArgument: no executing context keeps an argument once
// its statement ends — a WHERE binds its constants in room that dies with
// the execution — so an argument the caller drops is collected, after
// SELECTs on the session and on a snapshot, UPDATEs and DELETEs alike.
func TestScratchKeepsNoArgument(t *testing.T) {
	db, s := sizedDB(t)
	mustExecT(t, s, "CREATE TABLE named (id INT PRIMARY KEY, name TEXT)")
	for id := int64(1); id <= 8; id++ {
		mustExecT(t, s, "INSERT INTO named (id, name) VALUES (?, ?)", id, fmt.Sprintf("n%d", id))
	}
	snap := db.BeginSnapshot()
	defer snap.Close()
	// run executes sql with a fresh heap string for its first argument and
	// returns a weak pointer to the string's bytes.
	run := func(sql string, onSnap bool) weak.Pointer[byte] {
		arg := strings.Repeat("bound-argument-", 4)
		args := []sqldb.Value{arg, int64(2)}
		if onSnap {
			st, err := plan.ParseCached(sql)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := snap.ExecSelect(sql, st, args, false); err != nil {
				t.Fatal(err)
			}
		} else if _, err := s.Exec(sql, args...); err != nil {
			t.Fatal(err)
		}
		return weak.Make(unsafe.StringData(arg))
	}
	for _, c := range []struct {
		sql    string
		onSnap bool
	}{
		{"SELECT id FROM named WHERE name <> ? AND id >= ?", false},
		{"SELECT id FROM named WHERE name <> ? AND id >= ?", true},
		{"SELECT COUNT(*) FROM named WHERE ? <> name AND id > ?", false},
		{"SELECT COUNT(*) FROM named WHERE ? <> name AND id > ?", true},
		{"UPDATE named SET name = name WHERE name <> ? AND id = ?", false},
		{"DELETE FROM named WHERE name = ? AND id > ?", false},
	} {
		wp := run(c.sql, c.onSnap)
		runtime.GC()
		if wp.Value() != nil {
			t.Errorf("%q (snapshot %v): the argument is still reachable after the statement", c.sql, c.onSnap)
		}
	}
}

// TestMultiRowSelectAllocationsFlat: on a warm session, a whole-row SELECT
// allocates its result and one slice for its rows whatever their number —
// sorted by an output column or by a source-row key, deduplicated or not,
// through an index or a scan whose WHERE binds three atoms: binding
// allocates nothing. The snapshot path does the same, and re-pinning its
// snapshot allocates nothing.
func TestMultiRowSelectAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not fixed under the race detector")
	}
	db, s := sizedDB(t)
	snap := db.BeginSnapshot()
	snap.Close()
	if n := testing.AllocsPerRun(100, func() { snap.Repin(); snap.Close() }); n != 0 {
		t.Fatalf("re-pinning a snapshot session allocates %v times", n)
	}
	paths := map[string]func(sql string, g int64){
		"locked": func(sql string, g int64) {
			if _, err := s.Exec(sql, g); err != nil {
				t.Fatal(err)
			}
		},
		"snapshot": func(sql string, g int64) {
			st, err := plan.ParseCached(sql)
			if err != nil {
				t.Fatal(err)
			}
			snap.Repin()
			defer snap.Close()
			if _, _, err := snap.ExecSelect(sql, st, []sqldb.Value{g}, false); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, run := range paths {
		var indexed []float64
		for _, sql := range []string{
			"SELECT * FROM t WHERE g = ?",
			"SELECT * FROM t WHERE g = ? ORDER BY a DESC",
			"SELECT * FROM t WHERE g = ? ORDER BY a + id",
			"SELECT DISTINCT * FROM t WHERE g = ? ORDER BY a",
			"SELECT * FROM t WHERE id <= ? AND a >= 0 AND a < 7", // ids 1..g: g rows
		} {
			run(sql, 40) // grow the scratch to its largest use first
			var counts []float64
			for _, g := range []int64{2, 8, 40} {
				counts = append(counts, testing.AllocsPerRun(50, func() { run(sql, g) }))
			}
			if counts[0] != counts[1] || counts[1] != counts[2] {
				t.Errorf("%s %q: 2, 8 and 40 rows allocate %v times", name, sql, counts)
			}
			if indexed == nil {
				indexed = counts
			} else if strings.Contains(sql, "AND") && !reflect.DeepEqual(counts, indexed) {
				t.Errorf("%s %q: allocates %v times, the same rows through the index %v", name, sql, counts, indexed)
			}
		}
	}
}

// TestGlobalCountAllocationsFlat: a global aggregate keeps its one group
// directly, so COUNT(*) allocates the same however many rows it counts.
func TestGlobalCountAllocationsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not fixed under the race detector")
	}
	_, s := sizedDB(t)
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE g = ?",
		"SELECT COUNT(*) AS n, MAX(a) FROM t WHERE g <= ?",
	} {
		var counts []float64
		for _, g := range []int64{2, 8, 40} {
			counts = append(counts, testing.AllocsPerRun(50, func() {
				if _, err := s.Exec(sql, g); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if counts[0] != counts[1] || counts[1] != counts[2] {
			t.Errorf("%q over 2, 8 and 40 matching rows allocates %v times", sql, counts)
		}
	}
}

// TestWriteResultsComeFromArena: an INSERT, UPDATE, DELETE or DDL statement
// takes its result from the caller's arena, as a SELECT does. From a warm
// arena it reads as cleared once the arena resets, and an INSERT allocates
// once fewer than with a nil arena, which allocates each result on its own.
func TestWriteResultsComeFromArena(t *testing.T) {
	exec := func(s *Session, a *sqldb.Arena, sql string, args ...sqldb.Value) *sqldb.ResultSet {
		t.Helper()
		st, err := plan.ParseCached(sql)
		if err != nil {
			t.Fatal(err)
		}
		rs, _, err := s.ExecPrepared(a, sql, st, args, false)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rs
	}
	_, s := sizedDB(t)
	var a sqldb.Arena
	for _, w := range []struct {
		sql      string
		affected int
	}{
		{"INSERT INTO t (id, g, a) VALUES (100, 1, 0)", 1},
		{"UPDATE t SET a = a + 1 WHERE g = 2", 2},
		{"DELETE FROM t WHERE id = 100", 1},
		{"CREATE INDEX idx_t_a ON t (a)", 0},
	} {
		exec(s, &a, "SELECT id FROM t WHERE id = 1")
		a.Reset() // the slabs now have room for one result and one projected row
		rs := exec(s, &a, w.sql)
		if rs.RowsAffected != w.affected || rs.Rows != nil {
			t.Fatalf("%s: %+v", w.sql, *rs)
		}
		a.Reset()
		if !reflect.DeepEqual(*rs, sqldb.ResultSet{}) {
			t.Fatalf("%s: result after Reset reads %+v, want cleared", w.sql, *rs)
		}
	}

	if raceEnabled {
		t.Skip("allocation counts are not fixed under the race detector")
	}
	const insert = "INSERT INTO t (id, g, a) VALUES (?, 1, 0)"
	insertAllocs := func(a *sqldb.Arena) float64 {
		_, s := sizedDB(t) // each run inserts the same keys into the same state
		args := make([][]sqldb.Value, 600)
		for i := range args {
			args[i] = []sqldb.Value{int64(1000 + i)}
		}
		n := 0
		run := func() {
			if rs := exec(s, a, insert, args[n]...); rs.LastInsertID != int64(1000+n) {
				t.Fatalf("insert %d: %+v", n, *rs)
			}
			n++
			if a != nil {
				a.Reset()
			}
		}
		run()
		return testing.AllocsPerRun(500, run)
	}
	unowned, warm := insertAllocs(nil), insertAllocs(new(sqldb.Arena))
	if unowned-warm != 1 {
		t.Fatalf("an INSERT allocates %v times with a nil arena and %v with a warm one, want exactly one fewer", unowned, warm)
	}
}
