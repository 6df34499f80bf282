package plan

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/storage"
)

// withCaching runs f under the given cache mode, restoring the previous
// mode afterwards.
func withCaching(t *testing.T, on bool, f func()) {
	t.Helper()
	prev := SetCaching(on)
	defer SetCaching(prev)
	f()
}

func TestParseCachedInternsPerText(t *testing.T) {
	withCaching(t, true, func() {
		sql := "SELECT a, b FROM intern_test WHERE a = ? -- TestParseCachedInternsPerText"
		calls0 := sqlparse.ParseCalls()
		st1, err := ParseCached(sql)
		if err != nil {
			t.Fatal(err)
		}
		st2, err := ParseCached(sql)
		if err != nil {
			t.Fatal(err)
		}
		if st1 != st2 {
			t.Fatalf("interner returned distinct ASTs for the same text")
		}
		if d := sqlparse.ParseCalls() - calls0; d != 1 {
			t.Fatalf("parser ran %d times for one distinct text, want 1", d)
		}
	})
}

func TestParseCachedInternsErrors(t *testing.T) {
	withCaching(t, true, func() {
		sql := "SELEC bogus -- TestParseCachedInternsErrors"
		calls0 := sqlparse.ParseCalls()
		if _, err := ParseCached(sql); err == nil {
			t.Fatal("want parse error")
		}
		if _, err := ParseCached(sql); err == nil {
			t.Fatal("want parse error on repeat")
		}
		if d := sqlparse.ParseCalls() - calls0; d != 1 {
			t.Fatalf("malformed text parsed %d times, want 1", d)
		}
	})
}

func TestParseCachingDisabledParsesEveryCall(t *testing.T) {
	withCaching(t, false, func() {
		sql := "SELECT a FROM nocache_test -- TestParseCachingDisabledParsesEveryCall"
		calls0 := sqlparse.ParseCalls()
		for i := 0; i < 3; i++ {
			if _, err := ParseCached(sql); err != nil {
				t.Fatal(err)
			}
		}
		if d := sqlparse.ParseCalls() - calls0; d != 3 {
			t.Fatalf("disabled interner parsed %d times, want 3", d)
		}
	})
}

// TestAppendValueMatchesFormat pins the canonical text of a value —
// sqldb.AppendFormat's bytes, which sqldb.Format returns as a string. The
// encoding defines DISTINCT/GROUP BY row equality and the shard hash, so
// the literals below must never change.
func TestAppendValueMatchesFormat(t *testing.T) {
	for _, tc := range []struct {
		v    sqldb.Value
		want string
	}{
		{nil, "NULL"}, {int64(0), "0"}, {int64(-42), "-42"}, {int64(math.MaxInt64), "9223372036854775807"},
		{0.0, "0"}, {-1.5, "-1.5"}, {3.1415926535, "3.1415926535"}, {math.MaxFloat64, "1.7976931348623157e+308"}, {float64(7), "7"},
		{"", `""`}, {"plain", `"plain"`}, {"with'quote", `"with'quote"`}, {"tab\tand\nnewline", `"tab\tand\nnewline"`}, {"\x1funit", `"\x1funit"`},
		{"naïve 日本", `"naïve 日本"`}, {true, "TRUE"}, {false, "FALSE"},
	} {
		if got := string(sqldb.AppendFormat([]byte("x"), tc.v)); got != "x"+tc.want {
			t.Errorf("AppendFormat(%v) = %q, want %q", tc.v, got, "x"+tc.want)
		}
		if got := sqldb.Format(tc.v); got != tc.want {
			t.Errorf("Format(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestRowSetDedupAndOrder(t *testing.T) {
	rows := [][]sqldb.Value{
		{int64(1), "a"},
		{int64(2), "b"},
		{int64(1), "a"}, // dup of row 0
		{int64(1), "b"},
		{int64(2), "b"}, // dup of row 1
	}
	out := new(rowSet).distinct(rows)
	want := [][]sqldb.Value{rows[0], rows[1], rows[3]}
	if len(out) != len(want) {
		t.Fatalf("got %d rows, want %d", len(out), len(want))
	}
	for i := range want {
		if &out[i][0] != &want[i][0] {
			t.Errorf("row %d: first occurrence not preserved", i)
		}
	}
}

// seedStore builds a store with one indexed table for cache tests.
// insertRow stores row in tbl as a statement of its own.
func insertRow(t *testing.T, store *storage.Store, tbl *storage.Table, row storage.Row) {
	t.Helper()
	if err := store.Write(func(w *storage.Writer) error {
		_, err := w.Insert(tbl, row)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func seedStore(t *testing.T) *storage.Store {
	t.Helper()
	store := storage.NewStore()
	store.Lock()
	defer store.Unlock()
	tbl, err := store.CreateTable("kv", []storage.Column{
		{Name: "id", Type: sqldb.TypeInt, PrimaryKey: true},
		{Name: "v", Type: sqldb.TypeText},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		insertRow(t, store, tbl, storage.Row{int64(i), fmt.Sprintf("v%d", i)})
	}
	return store
}

func TestCacheHitsAndEpochInvalidation(t *testing.T) {
	withCaching(t, true, func() {
		store := seedStore(t)
		cache := NewCache(store)
		sql := "SELECT id, v FROM kv WHERE v = ?"
		st, err := ParseCached(sql)
		if err != nil {
			t.Fatal(err)
		}
		store.Lock()
		p1 := cache.Prepare(sql, st)
		p2 := cache.Prepare(sql, st)
		store.Unlock()
		if p1 != p2 {
			t.Fatal("repeat Prepare did not hit the cache")
		}
		if s := cache.Stats(); s.Hits != 1 || s.Misses != 1 {
			t.Fatalf("stats = %+v, want 1 hit / 1 miss", s)
		}

		// DDL bumps the epoch: the cached plan must recompile.
		store.Lock()
		tbl, _ := store.Table("kv")
		if err := tbl.AddIndex("v", false); err != nil {
			t.Fatal(err)
		}
		p3 := cache.Prepare(sql, st)
		store.Unlock()
		if p3 == p1 {
			t.Fatal("stale plan survived a schema-epoch bump")
		}
		if s := cache.Stats(); s.Invalidations != 1 {
			t.Fatalf("stats = %+v, want 1 invalidation", s)
		}

		// The recompiled plan uses the new index: an equality lookup on v
		// scans one row instead of four.
		rs, err := p3.Select.lockedExec(store, []sqldb.Value{"v3"})
		if err != nil {
			t.Fatal(err)
		}
		if rs.RowsScanned != 1 {
			t.Fatalf("post-DDL plan scanned %d rows, want 1 (index lookup)", rs.RowsScanned)
		}
		old, err := p1.Select.lockedExec(store, []sqldb.Value{"v3"})
		if err != nil {
			t.Fatal(err)
		}
		if old.RowsScanned != 4 {
			t.Fatalf("pre-DDL plan scanned %d rows, want 4 (full scan)", old.RowsScanned)
		}
	})
}

// lockedExec is a test helper running a plan under the store lock.
func (p *SelectPlan) lockedExec(store *storage.Store, args []sqldb.Value) (*sqldb.ResultSet, error) {
	store.Lock()
	defer store.Unlock()
	return p.Exec(args, new(Scratch), nil)
}

func TestCacheDisabledCompilesEveryCall(t *testing.T) {
	withCaching(t, false, func() {
		store := seedStore(t)
		cache := NewCache(store)
		sql := "SELECT id FROM kv WHERE id = ?"
		st, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		store.Lock()
		p1 := cache.Prepare(sql, st)
		p2 := cache.Prepare(sql, st)
		store.Unlock()
		if p1 == p2 {
			t.Fatal("disabled cache returned a shared plan")
		}
		if s := cache.Stats(); s.Hits != 0 || s.Misses != 2 {
			t.Fatalf("stats = %+v, want 0 hits / 2 misses", s)
		}
	})
}

// TestAccessDescOrderedForms pins how a trace names the access paths a
// two-column index adds, on the three TPC-C statements they were added for
// (texts as internal/apps/tpcc issues them), and that every shape the
// pushdown must leave alone keeps its old name — and its sort.
func TestAccessDescOrderedForms(t *testing.T) {
	store := storage.NewStore()
	store.Lock()
	defer store.Unlock()
	intCols := func(names ...string) []storage.Column {
		cols := make([]storage.Column, len(names))
		for i, n := range names {
			cols[i] = storage.Column{Name: n, Type: sqldb.TypeInt, PrimaryKey: i == 0}
		}
		return cols
	}
	for _, tb := range []struct {
		name     string
		cols     []string
		key, ord string
	}{
		{"order_line", []string{"ol_id", "ol_o_id", "ol_d_id", "ol_i_id"}, "ol_d_id", "ol_o_id"},
		{"new_orders", []string{"no_o_id", "no_d_id"}, "no_d_id", "no_o_id"},
		{"orders", []string{"o_id", "o_c_id", "o_carrier_id"}, "o_c_id", "o_id"},
	} {
		tbl, err := store.CreateTable(tb.name, intCols(tb.cols...))
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.AddOrderedIndex(tb.key, tb.ord); err != nil {
			t.Fatal(err)
		}
	}
	orders, _ := store.Table("orders")
	for i := int64(1); i <= 6; i++ {
		insertRow(t, store, orders, storage.Row{i, int64(7), i % 2})
	}
	for _, tc := range []struct {
		sql, desc string
		scanned   int // over the six orders of customer 7; -1: not run
	}{
		{"SELECT ol_i_id FROM order_line WHERE ol_d_id = ? AND ol_o_id >= ? AND ol_o_id < ?", "index-range(ol_d_id,ol_o_id)", -1},
		{"SELECT no_o_id FROM new_orders WHERE no_d_id = ? ORDER BY no_o_id LIMIT 1", "index-order(no_d_id,no_o_id)", -1},
		{"SELECT o_id, o_carrier_id FROM orders WHERE o_c_id = ? ORDER BY o_id DESC LIMIT 1", "index-order(o_c_id,o_id)", 1},

		// The residual filter runs before the limit counts: 6, 5, 4 are read
		// to find two with carrier 0.
		{"SELECT o_id FROM orders WHERE o_c_id = ? AND o_carrier_id = 0 ORDER BY o_id DESC LIMIT 2", "index-order(o_c_id,o_id)", 3},
		{"SELECT o_id AS n FROM orders WHERE o_c_id = ? ORDER BY n LIMIT 1 OFFSET 2", "index-order(o_c_id,o_id)", 3},
		{"SELECT o_id FROM orders WHERE ? = o_c_id AND 4 > o_id", "index-range(o_c_id,o_id)", 3},
		{"SELECT o_id FROM orders WHERE o_c_id = ? AND o_id = 4", "index-range(o_c_id,o_id)", 1},
		// Not the source stream, or not the ordering column: sorted as ever.
		{"SELECT o_id FROM orders WHERE o_c_id = ?", "index-eq(o_c_id)", 6},
		{"SELECT o_id FROM orders WHERE o_c_id = ? ORDER BY o_carrier_id LIMIT 1", "index-eq(o_c_id)", 6},
		{"SELECT o_id FROM orders WHERE o_c_id = ? ORDER BY o_id, o_carrier_id LIMIT 1", "index-eq(o_c_id)", 6},
		{"SELECT o_carrier_id AS o_id FROM orders WHERE o_c_id = ? ORDER BY o_id LIMIT 1", "index-eq(o_c_id)", 6},
		{"SELECT DISTINCT o_carrier_id FROM orders WHERE o_c_id = ? ORDER BY o_id LIMIT 1", "index-eq(o_c_id)", 6},
		{"SELECT o_id, COUNT(*) FROM orders WHERE o_c_id = ? GROUP BY o_id ORDER BY o_id LIMIT 1", "index-eq(o_c_id)", 6},
		{"SELECT a.o_id FROM orders a JOIN new_orders n ON n.no_o_id = a.o_id WHERE a.o_c_id = ? ORDER BY a.o_id LIMIT 1", "index-eq(o_c_id)", 6},
		{"SELECT o_id FROM orders WHERE o_c_id IN (?, 8) ORDER BY o_id LIMIT 1", "index-in(o_c_id)", 6},
		{"SELECT o_id FROM orders WHERE o_carrier_id = 0 ORDER BY o_id LIMIT 1", "scan", 6},
	} {
		st, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		p, err := CompileSelect(st.(*sqlparse.SelectStmt), store)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if got := p.AccessDesc(); got != tc.desc {
			t.Errorf("%s: AccessDesc %q, want %q", tc.sql, got, tc.desc)
		}
		if tc.scanned < 0 {
			continue
		}
		rs, err := p.Exec([]sqldb.Value{int64(7)}, new(Scratch), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if rs.RowsScanned != tc.scanned {
			t.Errorf("%s: scanned %d rows, want %d", tc.sql, rs.RowsScanned, tc.scanned)
		}
	}
}
