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
		a.Values(1)
	}
	a.Reset()
	if len(a.slots) != maxSlab || len(a.rows) != maxSlab || len(a.lists) != maxSlab || len(a.vals) != maxSlab {
		t.Fatalf("slabs after a long life: %d slots, %d rows, %d lists, %d values, want %d each", len(a.slots), len(a.rows), len(a.lists), len(a.vals), maxSlab)
	}
}

// TestArenaValues: projected rows come from the value slab while it lasts
// and are allocated on their own past it, as a nil arena allocates each;
// Reset clears what the slab handed out — a row still held reads as NULLs —
// and grows the slab to the request's demand.
func TestArenaValues(t *testing.T) {
	fill := func(row []Value) []Value {
		for i := range row {
			row[i] = int64(i + 1)
		}
		return row
	}
	if row := fill(new(Arena).Values(2)); len(row) != 2 || cap(row) != 2 {
		t.Fatalf("an empty arena's row: %v (cap %d)", row, cap(row))
	}
	var nilArena *Arena
	if row := nilArena.Values(3); len(row) != 3 || cap(row) != 3 {
		t.Fatalf("a nil arena's row: %v (cap %d)", row, cap(row))
	}
	if n := testing.AllocsPerRun(100, func() { fill(nilArena.Values(2)) }); n != 1 {
		t.Fatalf("a nil arena allocates %v times per row, want 1", n)
	}

	var a Arena
	overflow := []([]Value){fill(a.Values(2)), fill(a.Values(3))}
	a.Reset()
	if len(a.vals) != 5 {
		t.Fatalf("value slab after a 5-value request: %d, want 5", len(a.vals))
	}
	if overflow[1][2] != int64(3) {
		t.Fatal("Reset cleared a row it did not hand out from the slab")
	}
	held := []([]Value){fill(a.Values(2)), fill(a.Values(3))}
	if &held[0][0] != &a.vals[0] || &held[1][0] != &a.vals[2] || cap(held[0]) != 2 {
		t.Fatal("the second request's rows did not come from the slab, capped")
	}
	a.Reset()
	if n := testing.AllocsPerRun(100, func() { fill(a.Values(2)); fill(a.Values(3)); a.Reset() }); n != 0 {
		t.Fatalf("a warm arena allocates %v times per request, want 0", n)
	}
	held = []([]Value){fill(a.Values(2)), fill(a.Values(3))}
	past := fill(a.Values(1)) // past the slab: allocated on its own
	a.Reset()
	for _, row := range held {
		for i, v := range row {
			if v != nil {
				t.Fatalf("a held row's value %d after Reset: %v, want NULL", i, v)
			}
		}
	}
	if past[0] != int64(1) || len(a.vals) != 6 {
		t.Fatalf("the overflowed row reads %v and the slab grew to %d, want 1 and 6", past, len(a.vals))
	}
}
