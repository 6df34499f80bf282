package merge

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/driver"
	"repro/internal/sqldb"
)

// TestRenderMergedFallback forces the defensive render-failure path in
// Rewrite: when the merged-statement renderer errors, the group's members
// must pass through verbatim (counted ineligible, never dropped or
// corrupted), and demux must hand their results back unchanged.
func TestRenderMergedFallback(t *testing.T) {
	orig := renderMergedFn
	renderMergedFn = func(c *candidate, members []*candidate) (driver.Stmt, error) {
		return driver.Stmt{}, fmt.Errorf("forced render failure")
	}
	defer func() { renderMergedFn = orig }()

	stmts := []driver.Stmt{
		{SQL: "SELECT id, v FROM kv WHERE id = ?", Args: []sqldb.Value{int64(1)}},
		{SQL: "SELECT id, v FROM kv WHERE id = ?", Args: []sqldb.Value{int64(2)}},
	}
	m := New(Config{Enabled: true})
	plan := m.Rewrite(stmts)
	if len(plan.Stmts) != 2 {
		t.Fatalf("fallback must pass statements through: got %d", len(plan.Stmts))
	}
	for i := range stmts {
		if plan.Stmts[i].SQL != stmts[i].SQL {
			t.Fatalf("statement %d rewritten despite render failure: %q", i, plan.Stmts[i].SQL)
		}
	}
	if plan.Saved() != 0 || plan.Groups() != 0 {
		t.Fatalf("fallback plan claims savings: saved %d, groups %d", plan.Saved(), plan.Groups())
	}
	if st := m.Stats(); st.Ineligible == 0 {
		t.Fatalf("render failure not counted ineligible: %+v", st)
	}

	// Demux over the pass-through plan is the identity.
	rs := []*sqldb.ResultSet{
		{Cols: []string{"id", "v"}, Rows: [][]sqldb.Value{{int64(1), "a"}}},
		{Cols: []string{"id", "v"}, Rows: [][]sqldb.Value{{int64(2), "b"}}},
	}
	out, err := plan.Demux(rs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, rs) {
		t.Fatalf("fallback demux not identity: %v", out)
	}
}

// TestProrateHelpersSumExactly pins scanShare: shares reassemble the
// original total for awkward divisions.
func TestScanShareSums(t *testing.T) {
	for _, tc := range []struct{ scanned, n int }{{8, 3}, {0, 4}, {5, 5}, {7, 1}, {3, 7}} {
		total := 0
		for k := 0; k < tc.n; k++ {
			total += scanShare(tc.scanned, tc.n, k)
		}
		if total != tc.scanned {
			t.Fatalf("scanShare(%d,%d) shares sum to %d", tc.scanned, tc.n, total)
		}
	}
}
