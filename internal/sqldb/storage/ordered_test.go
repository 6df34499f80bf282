package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqldb"
)

func TestAddOrderedIndexRejects(t *testing.T) {
	tbl, err := NewTable("t", []Column{
		{Name: "id", Type: sqldb.TypeInt, PrimaryKey: true},
		{Name: "a", Type: sqldb.TypeInt},
		{Name: "b", Type: sqldb.TypeInt},
		{Name: "f", Type: sqldb.TypeFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ col, by, want string }{
		{"id", "b", `column "id" already indexed`},
		{"nope", "b", `no column "nope"`},
		{"a", "nope", `no column "nope"`},
		{"a", "a", `cannot be ordered by "a" itself`},
		{"a", "f", `ordering column "f" is FLOAT`},
	} {
		if err := tbl.AddOrderedIndex(c.col, c.by); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("AddOrderedIndex(%q, %q) = %v, want %s", c.col, c.by, err, c.want)
		}
	}
	if err := tbl.AddOrderedIndex("a", "b"); err != nil {
		t.Fatal(err)
	}
	// The two-column index is the index on a: a second one is a duplicate.
	if err := tbl.AddIndex("a", false); err == nil || !strings.Contains(err.Error(), "already indexed") {
		t.Errorf("AddIndex over a two-column index's column = %v", err)
	}
	if by, ok := tbl.OrderedBy(1); !ok || by != 2 || !tbl.HasIndex(1) {
		t.Errorf("OrderedBy(a) = %d, %v; HasIndex %v", by, ok, tbl.HasIndex(1))
	}
}

// probeWant is ProbeEach by definition: filter the id-ordered scan, then
// stable-sort it.
func probeWant(t *testing.T, tbl *Table, a sqldb.Value, r Range, o Order, snap *Snap) []Row {
	t.Helper()
	in := func(b sqldb.Value) bool {
		if r.Lo == nil && r.Hi == nil {
			return true
		}
		if b == nil {
			return false
		}
		if r.Lo != nil {
			if c := sqldb.CompareOrder(b, r.Lo); c < 0 || (c == 0 && r.LoExcl) {
				return false
			}
		}
		if r.Hi != nil {
			if c := sqldb.CompareOrder(b, r.Hi); c > 0 || (c == 0 && r.HiExcl) {
				return false
			}
		}
		return true
	}
	var rows []Row
	for _, row := range collectScan(t, tbl, snap) {
		if row[1] == a && in(row[2]) {
			rows = append(rows, row)
		}
	}
	switch o {
	case ByKey:
		sort.SliceStable(rows, func(i, j int) bool { return sqldb.CompareOrder(rows[i][2], rows[j][2]) < 0 })
	case ByKeyDesc:
		sort.SliceStable(rows, func(i, j int) bool { return sqldb.CompareOrder(rows[i][2], rows[j][2]) > 0 })
	}
	return rows
}

// checkPostings verifies what the superset rule promises of every
// two-column posting list: strictly ascending (b, id), and — once nothing
// awaits the sweep — exactly one entry per live row, the one it holds now.
func checkPostings(t *testing.T, tbl *Table, step int) {
	t.Helper()
	heaps := tbl.parts
	if heaps == nil {
		heaps = []*Table{tbl}
	}
	entries := 0
	for _, h := range heaps {
		for a, es := range h.ordered[1].lists {
			for i, e := range es {
				if i > 0 && seek(es[:i+1], e.b, e.id) != i {
					t.Fatalf("step %d: postings of %v out of order at %d: %v", step, a, i, es)
				}
				if tbl.PendingGC() == 0 {
					if r, ok := h.RowAt(e.id, nil); !ok || r[1] != a || r[2] != e.b {
						t.Fatalf("step %d: swept posting (%v, %v, %d) has no live row: %v", step, a, e.b, e.id, r)
					}
				}
			}
			entries += len(es)
		}
	}
	if tbl.PendingGC() != 0 {
		return
	}
	live := 0
	tbl.Scan(func(_ RowID, r Row) bool {
		if r[1] != nil {
			live++
		}
		return true
	})
	if entries != live {
		t.Fatalf("step %d: %d postings for %d live rows with a key", step, entries, live)
	}
}

// TestOrderedProbeUnderMutation drives a two-column index through inserts,
// updates of either column (the ordering one to NULL and back, or below
// every posting under its key), deletes and cross-shard moves, with
// snapshots pinned across them, and checks
// every probe shape against the scan it replaces — at the latest state and
// at every pinned snapshot, on a plain table and on a sharded view.
func TestOrderedProbeUnderMutation(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				orderedProbeRun(t, shards, seed)
			})
		}
	}
}

func orderedProbeRun(t *testing.T, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := NewShardedStore(shards)
	tbl, err := s.CreateTable("t", []Column{
		{Name: "id", Type: sqldb.TypeInt, PrimaryKey: true},
		{Name: "a", Type: sqldb.TypeInt},
		{Name: "b", Type: sqldb.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	val := func(n, nullOneIn int) sqldb.Value {
		if rng.Intn(nullOneIn) == 0 {
			return nil
		}
		return int64(rng.Intn(n))
	}
	nextKey := int64(0)
	var live []RowID
	insert := func() RowID {
		nextKey++
		id, err := tbl.Insert(Row{nextKey, val(3, 10), val(8, 6)})
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, id)
		return id
	}
	// Half the rows exist before the index does: AddOrderedIndex builds from
	// the heap, the rest arrive through prepend.
	for i := 0; i < 20; i++ {
		insert()
	}
	if err := tbl.AddOrderedIndex("a", "b"); err != nil {
		t.Fatal(err)
	}
	var pins []*Snap
	check := func(step int) {
		t.Helper()
		checkPostings(t, tbl, step)
		bound := func() sqldb.Value { return val(9, 3) }
		r := Range{Lo: bound(), Hi: bound(), LoExcl: rng.Intn(2) == 0, HiExcl: rng.Intn(2) == 0}
		for _, snap := range append([]*Snap{nil}, pins...) {
			for a := int64(0); a < 3; a++ {
				for _, o := range []Order{ByID, ByKey, ByKeyDesc} {
					for _, r := range []Range{{}, r} {
						var got []Row
						if err := tbl.ProbeEach(1, a, r, o, snap, func(row Row) error {
							got = append(got, row)
							return nil
						}); err != nil {
							t.Fatal(err)
						}
						if want := probeWant(t, tbl, a, r, o, snap); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("step %d: probe a=%d %+v order %d snap %v:\n got %v\nwant %v", step, a, r, o, snap != nil, got, want)
						}
					}
				}
				// The index on a, used as one: LookupEach and Lookup.
				var got []Row
				if err := tbl.LookupEach(1, a, snap, func(row Row) error {
					got = append(got, row)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				want := probeWant(t, tbl, a, Range{}, ByID, snap)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("step %d: LookupEach a=%d snap %v:\n got %v\nwant %v", step, a, snap != nil, got, want)
				}
				if snap == nil {
					if ids := tbl.Lookup(1, a); len(ids) != len(want) || !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
						t.Fatalf("step %d: Lookup a=%d = %v, want %d ascending ids", step, a, ids, len(want))
					}
				}
			}
		}
	}

	for step := 0; step < 300; step++ {
		switch k := rng.Intn(20); {
		case k < 6:
			insert()
		case k < 12 && len(live) > 0:
			id := live[rng.Intn(len(live))]
			cur, _ := tbl.RowAt(id, nil)
			row := append(Row(nil), cur...)
			row[1+rng.Intn(2)] = val(8, 5)
			if row[1] != nil {
				row[1] = row[1].(int64) % 3
			}
			if _, err := tbl.Update(id, row); err != nil {
				t.Fatal(err)
			}
		case k < 15 && len(live) > 0:
			i := rng.Intn(len(live))
			id := live[i]
			live = append(live[:i], live[i+1:]...)
			tbl.Delete(id)
		case k < 17 && len(live) > 0:
			// The oldest live row takes a b below every posting under its
			// a, and a fresh primary key (on a sharded view, a move): its
			// posting goes in ahead of the list by binary search.
			id := live[0]
			cur, _ := tbl.RowAt(id, nil)
			row := append(Row(nil), cur...)
			nextKey++
			row[0], row[2] = nextKey, int64(-1-rng.Intn(3))
			s.BeginStmt()
			if _, err := tbl.Update(id, row); err != nil {
				t.Fatal(err)
			}
			s.EndStmt()
		case k < 18 && len(pins) < 3:
			pins = append(pins, s.Snapshot())
		case k < 19 && len(pins) > 0:
			i := rng.Intn(len(pins))
			pins[i].Release()
			pins = append(pins[:i], pins[i+1:]...)
		}
		check(step)
	}
	for _, p := range pins {
		p.Release()
	}
	pins = nil
	if tbl.PendingGC() != 0 {
		t.Fatalf("%d cleanup records left with no snapshot pinned", tbl.PendingGC())
	}
	check(300)
}
