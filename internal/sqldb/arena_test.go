package sqldb

import "testing"

// TestArenaSlabsAndOverflow: an arena hands out results shaped as a nil
// arena allocates them — nil Rows when empty, cap == len otherwise — from
// its slabs while they last and on their own past them; Reset clears what
// the slabs handed out and grows each slab to the request's demand.
func TestArenaSlabsAndOverflow(t *testing.T) {
	cols := []string{"a"}
	rows := [][]Value{{int64(1)}, {int64(2)}, {int64(3)}}
	request := func(a *Arena) []*ResultSet {
		list := a.List(3)
		for _, n := range []int{0, 1, 3} {
			list = append(list, a.Result(cols, rows[:n], n))
		}
		for i, rs := range list {
			n := []int{0, 1, 3}[i]
			if len(rs.Rows) != n || cap(rs.Rows) != n || (n == 0) != (rs.Rows == nil) || rs.RowsScanned != n || len(rs.Cols) != 1 {
				t.Fatalf("result %d: %d rows (cap %d), %+v", i, len(rs.Rows), cap(rs.Rows), *rs)
			}
		}
		return list
	}
	request(nil)
	var a Arena
	first := request(&a) // empty slabs: every result overflows
	a.Reset()
	if len(a.slots) != 3 || len(a.rows) != 3 || len(a.lists) != 3 {
		t.Fatalf("slabs after the first request: %d slots, %d rows, %d lists, want 3 each", len(a.slots), len(a.rows), len(a.lists))
	}
	if first[2].Rows == nil {
		t.Fatal("Reset cleared a result it did not hand out from a slab")
	}
	held := request(&a)
	if &held[0] != &a.lists[0] || held[2] != &a.slots[2].rs || &held[2].Rows[0] != &a.rows[0] {
		t.Fatal("the second request did not fit the slabs")
	}
	kept := append([]*ResultSet(nil), held...)
	a.Reset()
	for i, rs := range kept {
		if rs.Rows != nil || rs.Cols != nil || rs.RowsScanned != 0 {
			t.Fatalf("result %d after Reset: %+v", i, *rs)
		}
	}
	if a.rows[0] != nil || held[0] != nil {
		t.Fatal("Reset left a row or list entry reachable")
	}
}

// TestArenaSlabsStayBounded: a connection that releases once after a long
// life reports that life as its demand; no slab grows past maxSlab for it.
func TestArenaSlabsStayBounded(t *testing.T) {
	var a Arena
	rows := [][]Value{{int64(1)}, {int64(2)}}
	for i := 0; i < 10*maxSlab; i++ {
		a.List(1)
		a.Result(nil, rows, 0)
	}
	a.Reset()
	if len(a.slots) != maxSlab || len(a.rows) != maxSlab || len(a.lists) != maxSlab {
		t.Fatalf("slabs after a long life: %d slots, %d rows, %d lists, want %d each", len(a.slots), len(a.rows), len(a.lists), maxSlab)
	}
}
