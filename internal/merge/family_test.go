package merge_test

import (
	"reflect"
	"testing"

	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/sqldb"
)

func countOf(grp int64) driver.Stmt {
	return q("SELECT COUNT(*) AS n FROM kv WHERE grp = ?", grp)
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
		return q(sql, grp)
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
		return q("SELECT COUNT(*) AS n FROM kv WHERE grp = ? AND id < 20", id)
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
	return q("SELECT id, v, grp FROM kv WHERE id >= ? AND id < ?", lo, hi)
}

// TestRangeEndToEnd: statements whose only varying part is a value window
// — overlapping, empty, BETWEEN-form — never merge. Each passes through
// verbatim, is counted ineligible, and returns exactly what it returns
// alone.
func TestRangeEndToEnd(t *testing.T) {
	conn := newKV(t, 30)
	between := func(lo, hi int64) driver.Stmt {
		return q("SELECT id, v, grp FROM kv WHERE id BETWEEN ? AND ?", lo, hi)
	}
	stmts := []driver.Stmt{
		rangeStmt(1, 6),
		rangeStmt(4, 9),     // overlaps the first
		rangeStmt(100, 110), // empty window
		between(2, 7),
		between(25, 28),
	}
	plain, err := conn.ExecBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}
	m := merge.New(merge.Config{Enabled: true})
	plan := m.Rewrite(stmts)
	if !reflect.DeepEqual(plan.Stmts, stmts) {
		t.Fatalf("window statements rewritten: %v", plan.Stmts)
	}
	if st := m.Stats(); st.Ineligible != int64(len(stmts)) || st.Groups != 0 {
		t.Fatalf("want every window statement ineligible and no group: %+v", st)
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
		if !reflect.DeepEqual(plain[i].Cols, demuxed[i].Cols) || !reflect.DeepEqual(plain[i].Rows, demuxed[i].Rows) {
			t.Errorf("stmt %d: plain %v %v, through the merger %v %v", i, plain[i].Cols, plain[i].Rows, demuxed[i].Cols, demuxed[i].Rows)
		}
	}
}

// TestRangeMixedClassesDoNotMerge: numeric and string windows over the
// same column stay as written.
func TestRangeMixedClassesDoNotMerge(t *testing.T) {
	stmts := []driver.Stmt{
		q("SELECT v FROM kv WHERE v >= ? AND v < ?", "a", "m"),
		q("SELECT v FROM kv WHERE v >= ? AND v < ?", int64(1), int64(5)),
	}
	plan := rewrite(t, merge.Config{Enabled: true}, stmts)
	if len(plan.Stmts) != 2 {
		t.Fatalf("mixed-class windows merged: %v", plan.Stmts)
	}
}

// TestRangeColumnNotProjectedIneligible: windows over a column the
// projection drops stay as written.
func TestRangeColumnNotProjectedIneligible(t *testing.T) {
	mk := func(lo int64) driver.Stmt {
		return q("SELECT v FROM kv WHERE id >= ? AND id < ?", lo, lo+5)
	}
	plan := rewrite(t, merge.Config{Enabled: true}, []driver.Stmt{mk(1), mk(10)})
	if len(plan.Stmts) != 2 {
		t.Fatalf("unprojected range column merged: %v", plan.Stmts)
	}
}

// TestEqualityPreferredOverRange: a statement carrying both an equality
// conjunct and a window merges under the equality family, with the window
// as a residual conjunct.
func TestEqualityPreferredOverRange(t *testing.T) {
	mk := func(grp int64) driver.Stmt {
		return q("SELECT id, v, grp FROM kv WHERE grp = ? AND id >= 0 AND id < 100", grp)
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
