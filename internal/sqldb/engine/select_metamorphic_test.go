package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
)

// metaDB seeds t with n random rows (NULLs in every non-key column) and
// ident with exactly t's ids, so `JOIN ident i ON i.id = t.id` is 1:1 and
// adding it to a statement over t must not change what the statement
// returns.
func metaDB(t *testing.T, r *rand.Rand, n int) (*DB, *Session) {
	t.Helper()
	db := New()
	s := db.NewSession()
	mustExecT(t, s, "CREATE TABLE t (id INT PRIMARY KEY, grp INT, n INT, s TEXT)")
	mustExecT(t, s, "CREATE INDEX idx_t_grp ON t (grp)")
	mustExecT(t, s, "CREATE TABLE ident (id INT PRIMARY KEY)")
	orNull := func(v sqldb.Value) sqldb.Value {
		if r.Intn(6) == 0 {
			return nil
		}
		return v
	}
	for id := 1; id <= n; id++ {
		mustExecT(t, s, "INSERT INTO t (id, grp, n, s) VALUES (?, ?, ?, ?)", int64(id),
			orNull(int64(r.Intn(8))), orNull(int64(r.Intn(11)-5)), orNull(string(rune('a'+r.Intn(5)))))
		mustExecT(t, s, "INSERT INTO ident (id) VALUES (?)", int64(id))
	}
	return db, s
}

// metaStmt generates one join-free SELECT over t with every column
// reference qualified (so the joined twin stays unambiguous): an access
// shape × WHERE × projection or GROUP BY+HAVING × ORDER BY on output and on
// non-output source columns × DISTINCT × LIMIT/OFFSET.
func metaStmt(r *rand.Rand, n int) string {
	pick := func(opts ...string) string { return opts[r.Intn(len(opts))] }
	var where []string
	switch r.Intn(3) {
	case 0: // point
		where = append(where, fmt.Sprintf("t.id = %d", r.Intn(n+2)))
	case 1: // IN over the indexed column, duplicates and a NULL member included
		where = append(where, fmt.Sprintf("t.grp IN (%d, %d, %d, NULL)", r.Intn(8), r.Intn(8), r.Intn(8)))
	}
	if r.Intn(2) == 0 {
		where = append(where, pick("t.n > -2", "t.s IS NOT NULL", "t.n + t.grp < 6",
			"t.s LIKE 'a%' OR t.n IS NULL", "t.n BETWEEN -3 AND 3", "NOT t.grp = 3"))
	}
	dir := func() string { return pick("", " ASC", " DESC") }

	var sel, tail string
	switch r.Intn(6) {
	case 0: // global aggregate: always exactly one row
		sel = "SELECT COUNT(*) AS c, SUM(t.n), MIN(t.s)"
		tail = pick("", " ORDER BY c", " ORDER BY COUNT(*) DESC")
	case 1, 2:
		sel = "SELECT " + pick("t.grp, COUNT(*) AS c, SUM(t.n) AS sm, MIN(t.s)", "COUNT(*) AS c, MAX(t.n), t.grp", "t.grp AS g, AVG(t.n) AS c, COUNT(*)")
		tail = " GROUP BY t.grp" + pick("", " HAVING COUNT(*) > 1", " HAVING SUM(t.n) >= 0")
		if r.Intn(3) > 0 {
			tail += " ORDER BY " + pick("c", "t.grp", "COUNT(*)") + dir() + pick("", ", t.grp DESC")
		}
	default:
		sel = "SELECT " + pick("", "DISTINCT ") + pick("t.*", "t.id, t.s", "t.grp, t.n * 2 + 1 AS e", "t.s, t.grp", "t.n AS x, t.s AS y")
		if r.Intn(3) > 0 {
			// t.n and t.s name a source column where they are not projected.
			tail = " ORDER BY " + pick("t.n", "t.s", "t.grp", "t.n * t.grp", "t.id") + dir() + pick("", ", t.s"+dir(), ", t.id DESC")
		}
	}
	if r.Intn(3) == 0 {
		tail += fmt.Sprintf(" LIMIT %d OFFSET %d", r.Intn(40), r.Intn(20))
	}
	sql := sel + " FROM t"
	if len(where) > 0 {
		sql += " WHERE " + strings.Join(where, " AND ")
	}
	return sql + tail
}

// TestSelectJoinFreeMatchesIdentityJoin is the generated equivalence check
// for the one SELECT executor: the join-free feed and the join feed end in
// the same sink, so a statement and its 1:1-joined twin must return
// identical rows in identical order — on the latest state and on a
// snapshot — across table sizes straddling 0, 1 and the old 256-row block.
func TestSelectJoinFreeMatchesIdentityJoin(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	stmts, nonEmpty := 0, 0
	for _, n := range []int{0, 1, 255, 256, 257, 600} {
		db, s := metaDB(t, r, n)
		snap := db.BeginSnapshot()
		for i := 0; i < 40; i++ {
			free := metaStmt(r, n)
			joined := strings.Replace(free, " FROM t", " FROM t JOIN ident i ON i.id = t.id", 1)
			want := query(t, s, free)
			for _, sql := range []string{free, joined} {
				st, err := plan.ParseCached(sql)
				if err != nil {
					t.Fatalf("parse %q: %v", sql, err)
				}
				onSnap, _, err := snap.ExecSelect(sql, st, nil, false)
				if err != nil {
					t.Fatalf("n=%d snapshot %q: %v", n, sql, err)
				}
				for k, got := range []*sqldb.ResultSet{query(t, s, sql), onSnap} {
					if !reflect.DeepEqual(got.Cols, want.Cols) || !reflect.DeepEqual(got.Rows, want.Rows) {
						t.Fatalf("n=%d %s %q:\n got %v %v\nwant %v %v  (from %q)",
							n, [...]string{"session", "snapshot"}[k], sql, got.Cols, got.Rows, want.Cols, want.Rows, free)
					}
				}
			}
			stmts++
			if len(want.Rows) > 0 {
				nonEmpty++
			}
		}
		snap.Close()
	}
	if stmts < 200 || nonEmpty < stmts/2 {
		t.Fatalf("generated %d statements, %d with rows: the check is too thin", stmts, nonEmpty)
	}
}

// TestSelectFirstErrorInRowOrder pins the error contract of the one
// executor: each row runs ON → WHERE → projection/accumulation → ORDER BY
// keys before the next row starts, so when several rows would raise
// different errors the statement reports the first one in source-row order
// — with or without a join, whatever the row count.
func TestSelectFirstErrorInRowOrder(t *testing.T) {
	db := New()
	s := db.NewSession()
	mustExecT(t, s, "CREATE TABLE e (id INT PRIMARY KEY, v TEXT)")
	mustExecT(t, s, "CREATE TABLE ident (id INT PRIMARY KEY)")
	// v is NULL except on rows 2, 3 and 300: NULL negates and multiplies
	// to NULL, TEXT does neither.
	for id := 1; id <= 300; id++ {
		var v sqldb.Value
		if id == 2 || id == 3 || id == 300 {
			v = "x"
		}
		mustExecT(t, s, "INSERT INTO e (id, v) VALUES (?, ?)", int64(id), v)
		mustExecT(t, s, "INSERT INTO ident (id) VALUES (?)", int64(id))
	}
	const (
		negate  = "engine: cannot negate string"  // -e.v
		numeric = "engine: string is not numeric" // e.v * 2
		join    = " JOIN ident i ON i.id = e.id"
	)
	cases := []struct{ sel, from, tail, want string }{
		// select list fails on row 2, WHERE on row 3
		{"SELECT e.v * 2", "", " WHERE e.id < 3 OR -e.v > 0", numeric},
		// WHERE fails on row 2, select list on row 3
		{"SELECT e.id < 3 OR -e.v > 0", "", " WHERE e.v * 2 IS NULL", numeric},
		// ORDER BY key fails on row 2, WHERE on row 3
		{"SELECT e.id", "", " WHERE e.id < 3 OR -e.v > 0 ORDER BY e.v * 2", numeric},
		// accumulation fails on row 2, WHERE on row 3
		{"SELECT SUM(e.v * 2)", "", " WHERE e.id < 3 OR -e.v > 0", numeric},
		// select list fails on row 2, WHERE on row 300 — past the old block boundary
		{"SELECT e.v * 2", "", " WHERE e.id < 300 OR -e.v > 0", numeric},
		// a lone error still surfaces from the last row
		{"SELECT -e.v", "", " WHERE e.id > 3", negate},
		// ON fails on row 3, select list on row 2
		{"SELECT e.v * 2", " JOIN ident j ON j.id = e.id AND (e.id < 3 OR -e.v > 0)", "", numeric},
	}
	for _, c := range cases {
		for _, from := range []string{c.from, c.from + join} {
			sql := c.sel + " FROM e" + from + c.tail
			if _, err := s.Exec(sql); err == nil || err.Error() != c.want {
				t.Errorf("%q: err = %v, want %q", sql, err, c.want)
			}
		}
	}
}

// TestOrderByMatchesSelectListExpression: an ORDER BY term that is
// structurally a select-list expression sorts on that output column —
// qualified columns and aggregate calls alike — in aggregate plans; a term
// that is none sorts on the group row, the group's sample columns.
func TestOrderByMatchesSelectListExpression(t *testing.T) {
	db := New()
	s := db.NewSession()
	mustExecT(t, s, "CREATE TABLE t (id INT PRIMARY KEY, g INT)")
	const byKey = "SELECT t.id, COUNT(*) FROM t JOIN t u ON u.g = t.g GROUP BY t.id ORDER BY "
	// Nothing to order.
	if rs := query(t, s, byKey+"u.g"); rs.NumRows() != 0 {
		t.Fatalf("rows = %v, want none", rs.Rows)
	}
	mustExecT(t, s, "INSERT INTO t (id, g) VALUES (1, 7), (2, 8), (3, 7), (4, 7), (5, 8)")

	for _, c := range []struct {
		orderBy string
		want    [][]sqldb.Value
	}{
		{"t.id DESC", [][]sqldb.Value{{int64(5), int64(2)}, {int64(4), int64(3)}, {int64(3), int64(3)}, {int64(2), int64(2)}, {int64(1), int64(3)}}},
		{"T.ID DESC", [][]sqldb.Value{{int64(5), int64(2)}, {int64(4), int64(3)}, {int64(3), int64(3)}, {int64(2), int64(2)}, {int64(1), int64(3)}}},
		{"COUNT(*), t.id", [][]sqldb.Value{{int64(2), int64(2)}, {int64(5), int64(2)}, {int64(1), int64(3)}, {int64(3), int64(3)}, {int64(4), int64(3)}}},
	} {
		if rs := query(t, s, byKey+c.orderBy); !reflect.DeepEqual(rs.Rows, c.want) {
			t.Errorf("ORDER BY %s: rows = %v, want %v", c.orderBy, rs.Rows, c.want)
		}
	}
	// u.g is no output column: each group sorts on its sample's u.g, which
	// equals t.g, stably — g 7 (ids 1, 3, 4) before g 8 (ids 2, 5).
	want := [][]sqldb.Value{{int64(1), int64(3)}, {int64(3), int64(3)}, {int64(4), int64(3)}, {int64(2), int64(2)}, {int64(5), int64(2)}}
	if rs := query(t, s, byKey+"u.g"); !reflect.DeepEqual(rs.Rows, want) {
		t.Fatalf("ORDER BY u.g: rows = %v, want %v", rs.Rows, want)
	}
}

// TestOrderByTermOutsideAggregateSelectList: an aggregate statement's
// ORDER BY term that names no output column — an aggregate call, or a
// source column read from the group's sample row — sorts the groups
// whether or not the table has rows, as HAVING and the select list read
// the same group row.
func TestOrderByTermOutsideAggregateSelectList(t *testing.T) {
	db := New()
	s := db.NewSession()
	mustExecT(t, s, "CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT)")
	cases := []struct {
		sql         string
		empty, full [][]sqldb.Value
	}{
		// Groups in first-seen order: g 10 (ids 1, 3: COUNT 2, sample v 5),
		// then g 20 (id 2: COUNT 1, sample v 1).
		{"SELECT g FROM t GROUP BY g ORDER BY COUNT(*)", nil, [][]sqldb.Value{{int64(20)}, {int64(10)}}},
		{"SELECT g FROM t GROUP BY g ORDER BY COUNT(*) DESC", nil, [][]sqldb.Value{{int64(10)}, {int64(20)}}},
		{"SELECT COUNT(*) FROM t ORDER BY MAX(v)", [][]sqldb.Value{{int64(0)}}, [][]sqldb.Value{{int64(3)}}},
		{"SELECT g FROM t GROUP BY g ORDER BY v", nil, [][]sqldb.Value{{int64(20)}, {int64(10)}}},
		{"SELECT g FROM t GROUP BY g ORDER BY v DESC", nil, [][]sqldb.Value{{int64(10)}, {int64(20)}}},
		{"SELECT g, v FROM t GROUP BY g", nil, [][]sqldb.Value{{int64(10), int64(5)}, {int64(20), int64(1)}}},
	}
	check := func(state string, want func(i int) [][]sqldb.Value) {
		for i, c := range cases {
			rs, err := s.Exec(c.sql)
			if err != nil {
				t.Errorf("%s table, %q: %v", state, c.sql, err)
			} else if !reflect.DeepEqual(rs.Rows, want(i)) {
				t.Errorf("%s table, %q: rows = %v, want %v", state, c.sql, rs.Rows, want(i))
			}
		}
	}
	check("empty", func(i int) [][]sqldb.Value { return cases[i].empty })
	mustExecT(t, s, "INSERT INTO t (id, g, v) VALUES (1, 10, 5), (2, 20, 1), (3, 10, 3)")
	check("3-row", func(i int) [][]sqldb.Value { return cases[i].full })
}
