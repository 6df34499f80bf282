package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
)

// wholeRowStmt generates a SELECT whose select list is the whole source row
// (a star, or every column in row order) and its twin listing the same
// columns in reverse, which the executor must project. Sources: t alone, t
// joined 1:1 with ident, and t LEFT JOINed with ident one id ahead, so the
// last row joins a NULL side. WHERE, ORDER BY, DISTINCT and LIMIT/OFFSET
// vary as in metaStmt.
func wholeRowStmt(r *rand.Rand, n int) (whole, reversed string) {
	pick := func(opts ...string) string { return opts[r.Intn(len(opts))] }
	cols := []string{"t.id", "t.grp", "t.n", "t.s"}
	from := " FROM t"
	lists := []string{"*", "t.*", strings.Join(cols, ", ")}
	switch r.Intn(3) {
	case 1:
		from = " FROM t JOIN ident i ON i.id = t.id"
		cols = append(cols, "i.id")
		lists = []string{"*", "t.*, i.*", "t.*, i.id"}
	case 2:
		from = " FROM t LEFT JOIN ident i ON i.id = t.id + 1"
		cols = append(cols, "i.id")
		lists = []string{"*", "t.*, i.*"}
	}
	var where []string
	switch r.Intn(3) {
	case 0:
		where = append(where, fmt.Sprintf("t.id = %d", r.Intn(n+2)))
	case 1:
		where = append(where, fmt.Sprintf("t.grp IN (%d, %d, NULL)", r.Intn(8), r.Intn(8)))
	}
	if r.Intn(2) == 0 {
		where = append(where, pick("t.n > -2", "t.s IS NOT NULL", "t.n + t.grp < 6", "NOT t.grp = 3"))
	}
	tail := ""
	if len(where) > 0 {
		tail = " WHERE " + strings.Join(where, " AND ")
	}
	if r.Intn(3) > 0 {
		tail += " ORDER BY " + pick("t.n", "t.s DESC", "t.grp, t.id DESC", "t.n * t.grp")
	}
	if r.Intn(3) == 0 {
		tail += fmt.Sprintf(" LIMIT %d OFFSET %d", r.Intn(30), r.Intn(10))
	}
	distinct := pick("", "DISTINCT ")
	rev := slices.Clone(cols)
	slices.Reverse(rev)
	return "SELECT " + distinct + pick(lists...) + from + tail,
		"SELECT " + distinct + strings.Join(rev, ", ") + from + tail
}

// TestWholeRowSelectMatchesProjection: a whole-row plan hands back its
// source rows instead of projecting them, and must return exactly what the
// projecting executor does — the reversed twin's rows, reversed — on the
// latest state and on a snapshot.
func TestWholeRowSelectMatchesProjection(t *testing.T) {
	r := rand.New(rand.NewSource(28))
	stmts, rows := 0, 0
	for _, n := range []int{0, 1, 40, 300} {
		db, s := metaDB(t, r, n)
		snap := db.BeginSnapshot()
		for i := 0; i < 60; i++ {
			whole, reversed := wholeRowStmt(r, n)
			want := query(t, s, reversed)
			for _, row := range want.Rows {
				slices.Reverse(row)
			}
			st, err := plan.ParseCached(whole)
			if err != nil {
				t.Fatalf("parse %q: %v", whole, err)
			}
			onSnap, _, err := snap.ExecSelect(whole, st, nil, false)
			if err != nil {
				t.Fatalf("snapshot %q: %v", whole, err)
			}
			for k, got := range []*sqldb.ResultSet{query(t, s, whole), onSnap} {
				if !reflect.DeepEqual(got.Rows, want.Rows) || got.RowsScanned != want.RowsScanned {
					t.Fatalf("n=%d %s %q:\n got %v (scanned %d)\nwant %v (scanned %d)", n,
						[...]string{"session", "snapshot"}[k], whole, got.Rows, got.RowsScanned, want.Rows, want.RowsScanned)
				}
			}
			stmts++
			rows += len(want.Rows)
		}
		snap.Close()
	}
	if stmts < 200 || rows < 1000 {
		t.Fatalf("generated %d statements returning %d rows: the check is too thin", stmts, rows)
	}
}

// TestWholeRowSelectSharesStoredRow: `SELECT *` and the full column list
// return the stored row image itself — one array however often or however
// spelled it is read, capped so an append cannot reach it — while any other
// list projects a copy; and the image a result holds is immutable, so a
// later UPDATE shows in new results, never in old ones.
func TestWholeRowSelectSharesStoredRow(t *testing.T) {
	db := New()
	s := db.NewSession()
	mustExecT(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)")
	mustExecT(t, s, "INSERT INTO kv (id, v) VALUES (1, 'a')")
	first := func(sql string) []sqldb.Value {
		rs := query(t, s, sql, int64(1))
		if len(rs.Rows) != 1 {
			t.Fatalf("%q: %d rows", sql, len(rs.Rows))
		}
		return rs.Rows[0]
	}
	star := first("SELECT * FROM kv WHERE id = ?")
	listed := first("SELECT id, v FROM kv WHERE id = ?")
	if &star[0] != &listed[0] || &star[0] != &first("SELECT kv.* FROM kv WHERE id = ?")[0] {
		t.Fatal("whole-row results do not share the stored image")
	}
	if cap(star) != len(star) {
		t.Fatalf("whole-row result has cap %d over len %d", cap(star), len(star))
	}
	if swapped := first("SELECT v, id FROM kv WHERE id = ?"); &swapped[0] == &star[0] {
		t.Fatal("a projected result aliases the stored image")
	}

	mustExecT(t, s, "UPDATE kv SET v = 'b' WHERE id = 1")
	if want := []sqldb.Value{int64(1), "a"}; !reflect.DeepEqual(star, want) {
		t.Fatalf("an earlier result changed under UPDATE: %v, want %v", star, want)
	}
	if got, want := first("SELECT * FROM kv WHERE id = ?"), []sqldb.Value{int64(1), "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after UPDATE: %v, want %v", got, want)
	}
}

// TestWholeRowSelectAllocatesNoRow: a whole-row point SELECT allocates one
// object less than the same columns reordered: the projected row.
func TestWholeRowSelectAllocatesNoRow(t *testing.T) {
	db := New()
	s := db.NewSession()
	mustExecT(t, s, "CREATE TABLE kv (id INT PRIMARY KEY, a INT, b TEXT)")
	mustExecT(t, s, "INSERT INTO kv (id, a, b) VALUES (1, 2, 'x')")
	allocs := func(sql string) float64 {
		run := func() {
			if _, err := s.Exec(sql, int64(1)); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(200, run)
	}
	whole, projected := allocs("SELECT * FROM kv WHERE id = ?"), allocs("SELECT b, a, id FROM kv WHERE id = ?")
	t.Logf("whole-row %v allocs, reordered %v", whole, projected)
	if whole != projected-1 {
		t.Errorf("whole-row point SELECT: %v allocs, reordered: %v; want exactly one fewer", whole, projected)
	}
}
