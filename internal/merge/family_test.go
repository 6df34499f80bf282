package merge_test

import (
	"reflect"
	"testing"

	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/sqldb"
)

func countOf(grp int64) driver.Stmt {
	return driver.Stmt{SQL: "SELECT COUNT(*) AS n FROM kv WHERE grp = ?", Args: []sqldb.Value{grp}}
}

func TestAggregateFamilyMerges(t *testing.T) {
	plan := rewrite(t, merge.Config{Enabled: true}, []driver.Stmt{countOf(0), countOf(1), countOf(2)})
	if len(plan.Stmts) != 1 {
		t.Fatalf("want 1 merged statement, got %d: %+v", len(plan.Stmts), plan.Stmts)
	}
	want := "SELECT grp, COUNT(*) FROM kv WHERE grp IN (?, ?, ?) GROUP BY grp"
	if plan.Stmts[0].SQL != want {
		t.Fatalf("merged SQL = %q, want %q", plan.Stmts[0].SQL, want)
	}
	if got := plan.SavedByFamily()[merge.FamilyAggregate]; got != 2 {
		t.Fatalf("aggregate family saved = %d, want 2", got)
	}
}

func TestAggregateFamilyDisabled(t *testing.T) {
	plan := rewrite(t, merge.Config{Enabled: true, DisableAggregates: true},
		[]driver.Stmt{countOf(0), countOf(1)})
	if len(plan.Stmts) != 2 {
		t.Fatalf("aggregates merged despite DisableAggregates: %v", plan.Stmts)
	}
}

// TestAggregateEndToEnd executes a per-key aggregate fan-out both ways and
// requires identical per-original results, including the zero-count row for
// a key matching nothing and NULL sums over empty sets.
func TestAggregateEndToEnd(t *testing.T) {
	conn := newKV(t, 30)
	mk := func(sql string, grp int64) driver.Stmt {
		return driver.Stmt{SQL: sql, Args: []sqldb.Value{grp}}
	}
	stmts := []driver.Stmt{
		countOf(0),
		countOf(1),
		countOf(999), // no such group: demux must synthesize the 0 row
		mk("SELECT SUM(id) AS total, MIN(id), MAX(id) FROM kv WHERE grp = ?", 0),
		mk("SELECT SUM(id) AS total, MIN(id), MAX(id) FROM kv WHERE grp = ?", 2),
		mk("SELECT SUM(id) AS total, MIN(id), MAX(id) FROM kv WHERE grp = ?", 999), // NULL row
		mk("SELECT AVG(id) FROM kv WHERE grp = ?", 1),
		mk("SELECT AVG(id) FROM kv WHERE grp = ?", 2),
	}

	plain, err := conn.ExecBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}

	m := merge.New(merge.Config{Enabled: true})
	plan := m.Rewrite(stmts)
	if len(plan.Stmts) != 3 { // one per aggregate shape
		t.Fatalf("want 3 merged statements, got %d: %v", len(plan.Stmts), plan.Stmts)
	}
	mergedResults, err := conn.ExecBatch(plan.Stmts)
	if err != nil {
		t.Fatal(err)
	}
	demuxed, err := plan.Demux(mergedResults)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		if !reflect.DeepEqual(plain[i].Cols, demuxed[i].Cols) {
			t.Errorf("stmt %d: cols %v vs %v", i, plain[i].Cols, demuxed[i].Cols)
		}
		if !reflect.DeepEqual(plain[i].Rows, demuxed[i].Rows) {
			t.Errorf("stmt %d: rows differ\nplain:  %v\nmerged: %v", i, plain[i].Rows, demuxed[i].Rows)
		}
	}
	if got := m.Stats().SavedByFamily[merge.FamilyAggregate]; got != 5 {
		t.Fatalf("aggregate family saved = %d, want 5", got)
	}
}

// TestAggregateResidualConjuncts pins the itracker userList shape: a COUNT
// with a residual predicate shared across the family.
func TestAggregateResidualConjuncts(t *testing.T) {
	mk := func(id int64) driver.Stmt {
		return driver.Stmt{
			SQL:  "SELECT COUNT(*) AS n FROM kv WHERE grp = ? AND id < 20",
			Args: []sqldb.Value{id},
		}
	}
	conn := newKV(t, 30)
	stmts := []driver.Stmt{mk(0), mk(1), mk(2)}
	plain, err := conn.ExecBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}
	m := merge.New(merge.Config{Enabled: true})
	plan := m.Rewrite(stmts)
	if len(plan.Stmts) != 1 {
		t.Fatalf("want 1 merged statement, got %d: %v", len(plan.Stmts), plan.Stmts)
	}
	mergedResults, err := conn.ExecBatch(plan.Stmts)
	if err != nil {
		t.Fatal(err)
	}
	demuxed, err := plan.Demux(mergedResults)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		if !reflect.DeepEqual(plain[i].Rows, demuxed[i].Rows) {
			t.Errorf("stmt %d: rows differ: plain %v merged %v", i, plain[i].Rows, demuxed[i].Rows)
		}
	}
}

// TestAggregateDuplicateKeysShareGroup: with dedup disabled upstream the
// same count can appear twice; both originals get the same synthesized row
// and the duplicate key is listed once.
func TestAggregateDuplicateKeysShareGroup(t *testing.T) {
	conn := newKV(t, 30)
	stmts := []driver.Stmt{countOf(1), countOf(2), countOf(1)}
	plain, err := conn.ExecBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}
	m := merge.New(merge.Config{Enabled: true})
	plan := m.Rewrite(stmts)
	if len(plan.Stmts) != 1 {
		t.Fatalf("want 1 merged statement, got %d", len(plan.Stmts))
	}
	if got := len(plan.Stmts[0].Args); got != 2 {
		t.Fatalf("duplicate key should be listed once: args %v", plan.Stmts[0].Args)
	}
	mergedResults, err := conn.ExecBatch(plan.Stmts)
	if err != nil {
		t.Fatal(err)
	}
	demuxed, err := plan.Demux(mergedResults)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		if !reflect.DeepEqual(plain[i].Rows, demuxed[i].Rows) {
			t.Errorf("stmt %d: rows differ: plain %v merged %v", i, plain[i].Rows, demuxed[i].Rows)
		}
	}
}

func rangeStmt(lo, hi int64) driver.Stmt {
	return driver.Stmt{
		SQL:  "SELECT id, v, grp FROM kv WHERE id >= ? AND id < ?",
		Args: []sqldb.Value{lo, hi},
	}
}

func TestRangeFamilyMerges(t *testing.T) {
	plan := rewrite(t, merge.Config{Enabled: true}, []driver.Stmt{rangeStmt(1, 5), rangeStmt(10, 15)})
	if len(plan.Stmts) != 1 {
		t.Fatalf("want 1 merged statement, got %d: %+v", len(plan.Stmts), plan.Stmts)
	}
	want := "SELECT id, v, grp FROM kv WHERE ((id >= ? AND id < ?) OR (id >= ? AND id < ?))"
	if plan.Stmts[0].SQL != want {
		t.Fatalf("merged SQL = %q, want %q", plan.Stmts[0].SQL, want)
	}
	if got := plan.SavedByFamily()[merge.FamilyRange]; got != 1 {
		t.Fatalf("range family saved = %d, want 1", got)
	}
}

func TestRangeFamilyDisabled(t *testing.T) {
	plan := rewrite(t, merge.Config{Enabled: true, DisableRanges: true},
		[]driver.Stmt{rangeStmt(1, 5), rangeStmt(10, 15)})
	if len(plan.Stmts) != 2 {
		t.Fatalf("ranges merged despite DisableRanges: %v", plan.Stmts)
	}
}

// TestRangeEndToEnd executes overlapping, disjoint, BETWEEN-form, and
// empty windows both ways and requires identical per-original results —
// overlap means one merged row can route to several originals.
func TestRangeEndToEnd(t *testing.T) {
	conn := newKV(t, 30)
	between := func(lo, hi int64) driver.Stmt {
		return driver.Stmt{
			SQL:  "SELECT id, v, grp FROM kv WHERE id BETWEEN ? AND ?",
			Args: []sqldb.Value{lo, hi},
		}
	}
	stmts := []driver.Stmt{
		rangeStmt(1, 6),
		rangeStmt(4, 9),     // overlaps the first
		rangeStmt(100, 110), // empty window
		between(2, 7),       // inclusive form, merges with the half-open ones
		between(25, 28),
	}
	plain, err := conn.ExecBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}
	m := merge.New(merge.Config{Enabled: true})
	plan := m.Rewrite(stmts)
	if len(plan.Stmts) != 1 {
		t.Fatalf("want 1 merged statement, got %d: %v", len(plan.Stmts), plan.Stmts)
	}
	mergedResults, err := conn.ExecBatch(plan.Stmts)
	if err != nil {
		t.Fatal(err)
	}
	demuxed, err := plan.Demux(mergedResults)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		if !reflect.DeepEqual(plain[i].Cols, demuxed[i].Cols) {
			t.Errorf("stmt %d: cols %v vs %v", i, plain[i].Cols, demuxed[i].Cols)
		}
		if !reflect.DeepEqual(plain[i].Rows, demuxed[i].Rows) {
			t.Errorf("stmt %d: rows differ\nplain:  %v\nmerged: %v", i, plain[i].Rows, demuxed[i].Rows)
		}
	}
}

// TestRangeOrderByPreserved checks per-window row order of an ORDER BY
// range group against standalone execution.
func TestRangeOrderByPreserved(t *testing.T) {
	conn := newKV(t, 30)
	mk := func(lo, hi int64) driver.Stmt {
		return driver.Stmt{
			SQL:  "SELECT id, v, grp FROM kv WHERE id >= ? AND id < ? ORDER BY id DESC",
			Args: []sqldb.Value{lo, hi},
		}
	}
	stmts := []driver.Stmt{mk(1, 10), mk(5, 20)}
	plain, err := conn.ExecBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}
	m := merge.New(merge.Config{Enabled: true})
	plan := m.Rewrite(stmts)
	if len(plan.Stmts) != 1 {
		t.Fatalf("want 1 merged statement, got %d", len(plan.Stmts))
	}
	results, err := conn.ExecBatch(plan.Stmts)
	if err != nil {
		t.Fatal(err)
	}
	demuxed, err := plan.Demux(results)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		if !reflect.DeepEqual(plain[i].Rows, demuxed[i].Rows) {
			t.Errorf("stmt %d: order not preserved\nplain:  %v\nmerged: %v", i, plain[i].Rows, demuxed[i].Rows)
		}
	}
}

// TestRangeDuplicateWindowsShareDisjunct: identical windows (dedup
// disabled upstream) share one disjunct and both originals get the rows.
func TestRangeDuplicateWindowsShareDisjunct(t *testing.T) {
	conn := newKV(t, 30)
	stmts := []driver.Stmt{rangeStmt(3, 8), rangeStmt(3, 8)}
	plain, err := conn.ExecBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}
	m := merge.New(merge.Config{Enabled: true})
	plan := m.Rewrite(stmts)
	if len(plan.Stmts) != 1 {
		t.Fatalf("want 1 merged statement, got %d", len(plan.Stmts))
	}
	if got := len(plan.Stmts[0].Args); got != 2 { // one window: lo, hi
		t.Fatalf("duplicate window should render once: args %v", plan.Stmts[0].Args)
	}
	results, err := conn.ExecBatch(plan.Stmts)
	if err != nil {
		t.Fatal(err)
	}
	demuxed, err := plan.Demux(results)
	if err != nil {
		t.Fatal(err)
	}
	for i := range stmts {
		if !reflect.DeepEqual(plain[i].Rows, demuxed[i].Rows) {
			t.Errorf("stmt %d: rows differ: plain %v merged %v", i, plain[i].Rows, demuxed[i].Rows)
		}
	}
}

// TestRangeMixedClassesDoNotMerge: numeric and string windows over the
// same column must not share a merged OR — the merged eval could fail
// where the originals would not.
func TestRangeMixedClassesDoNotMerge(t *testing.T) {
	stmts := []driver.Stmt{
		{SQL: "SELECT v FROM kv WHERE v >= ? AND v < ?", Args: []sqldb.Value{"a", "m"}},
		{SQL: "SELECT v FROM kv WHERE v >= ? AND v < ?", Args: []sqldb.Value{int64(1), int64(5)}},
	}
	plan := rewrite(t, merge.Config{Enabled: true}, stmts)
	if len(plan.Stmts) != 2 {
		t.Fatalf("mixed-class windows merged: %v", plan.Stmts)
	}
}

// TestRangeColumnNotProjectedIneligible: membership demux needs the range
// column's values.
func TestRangeColumnNotProjectedIneligible(t *testing.T) {
	mk := func(lo int64) driver.Stmt {
		return driver.Stmt{SQL: "SELECT v FROM kv WHERE id >= ? AND id < ?", Args: []sqldb.Value{lo, lo + 5}}
	}
	plan := rewrite(t, merge.Config{Enabled: true}, []driver.Stmt{mk(1), mk(10)})
	if len(plan.Stmts) != 2 {
		t.Fatalf("unprojected range column merged: %v", plan.Stmts)
	}
}

// TestEqualityPreferredOverRange: a statement carrying both an equality
// conjunct and a window merges under the (index-accelerable) equality
// family, with the window as a residual conjunct.
func TestEqualityPreferredOverRange(t *testing.T) {
	mk := func(grp int64) driver.Stmt {
		return driver.Stmt{
			SQL:  "SELECT id, v, grp FROM kv WHERE grp = ? AND id >= 0 AND id < 100",
			Args: []sqldb.Value{grp},
		}
	}
	plan := rewrite(t, merge.Config{Enabled: true}, []driver.Stmt{mk(0), mk(1)})
	if len(plan.Stmts) != 1 {
		t.Fatalf("want 1 merged statement, got %d", len(plan.Stmts))
	}
	if got := plan.SavedByFamily()[merge.FamilyEquality]; got != 1 {
		t.Fatalf("expected the equality family to claim the group: %+v", plan.SavedByFamily())
	}
}

// TestDemuxProRatesRowsScanned pins the scan-accounting fix: the demuxed
// shares of a merged statement's RowsScanned must sum to the merged
// statement's actual scan count, not to the per-original row counts.
func TestDemuxProRatesRowsScanned(t *testing.T) {
	plan := rewrite(t, merge.Config{Enabled: true}, []driver.Stmt{point(1), point(2), point(3)})
	merged := &sqldb.ResultSet{
		Cols:        []string{"id", "v"},
		Rows:        [][]sqldb.Value{{int64(3), "c"}, {int64(1), "a"}},
		RowsScanned: 8, // merged execution visited 8 physical rows
	}
	out, err := plan.Demux([]*sqldb.ResultSet{merged})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, rs := range out {
		total += rs.RowsScanned
	}
	if total != 8 {
		t.Fatalf("demuxed RowsScanned sum = %d, want the merged statement's 8", total)
	}
	// Earlier routes absorb the remainder: 8 over 3 routes = 3, 3, 2.
	for i, want := range []int{3, 3, 2} {
		if out[i].RowsScanned != want {
			t.Fatalf("route %d RowsScanned = %d, want %d (all: %v)", i, out[i].RowsScanned,
				want, []int{out[0].RowsScanned, out[1].RowsScanned, out[2].RowsScanned})
		}
	}
}

// TestAggregateMaxInWidthChunks: the width cap applies to aggregate
// families too — 2·MaxInWidth+1 members split 64/64/1.
func TestAggregateMaxInWidthChunks(t *testing.T) {
	stmts := make([]driver.Stmt, 2*merge.MaxInWidth+1)
	for i := range stmts {
		stmts[i] = countOf(int64(i))
	}
	plan := rewrite(t, merge.Config{Enabled: true}, stmts)
	if len(plan.Stmts) != 3 { // 64 + 64 + 1
		t.Fatalf("want 3 chunks, got %d: %v", len(plan.Stmts), plan.Stmts)
	}
	for i, width := range []int{merge.MaxInWidth, merge.MaxInWidth, 1} {
		if got := len(plan.Stmts[i].Args); got != width {
			t.Fatalf("chunk %d width = %d, want %d", i, got, width)
		}
	}
}
