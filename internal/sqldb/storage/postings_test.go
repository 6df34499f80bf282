package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sqldb"
)

// posting is one index entry: the indexed value, the ordering value of a
// two-column index's entry (nil for a one-column index) and the row id.
type posting struct {
	v, b sqldb.Value
	id   RowID
}

// checkExactPostings verifies, heap by heap, that every index holds exactly
// one posting per live row with a non-NULL indexed value — under the row's
// current value, and for a two-column index its current ordering value —
// and no other posting. It holds only once nothing awaits the sweep.
func checkExactPostings(t *testing.T, tbl *Table, step int) {
	t.Helper()
	if n := tbl.PendingGC(); n != 0 {
		t.Fatalf("step %d: %d cleanup records pending with no snapshot pinned", step, n)
	}
	heaps := tbl.parts
	if heaps == nil {
		heaps = []*Table{tbl}
	}
	for hi, h := range heaps {
		for k := range h.indexes {
			x := &h.indexes[k]
			var got []posting
			if x.oi != nil {
				for v, es := range x.oi.lists {
					for _, e := range es {
						got = append(got, posting{v, e.b, e.id})
					}
				}
			} else {
				for v, ids := range x.ids {
					if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
						t.Fatalf("step %d: heap %d column %d: postings of %v not ascending: %v", step, hi, x.col, v, ids)
					}
					for _, id := range ids {
						got = append(got, posting{v, nil, id})
					}
				}
			}
			var want []posting
			h.scan(nil, func(id RowID, r Row) bool {
				if r[x.col] != nil {
					p := posting{v: r[x.col], id: id}
					if x.oi != nil {
						p.b = r[x.oi.by]
					}
					want = append(want, p)
				}
				return true
			})
			order := func(ps []posting) string {
				sort.Slice(ps, func(i, j int) bool { return ps[i].id < ps[j].id })
				return fmt.Sprint(ps)
			}
			if g, w := order(got), order(want); g != w {
				t.Fatalf("step %d: heap %d column %d postings\n got %s\nwant %s", step, hi, x.col, g, w)
			}
		}
	}
}

// TestPostingsUnderMutation drives a table carrying a one-column index
// beside a two-column one through the writes that post selectively —
// updates that change no indexed column, updates that change only the
// ordering column, runs of deletes of the oldest row under a key (the front
// of its posting lists) — amid inserts, other updates, random deletes,
// cross-shard moves and pinned snapshots. Reads at every pin must match the
// scan, and whenever no pin is held every index must hold exactly the
// postings of the live rows.
func TestPostingsUnderMutation(t *testing.T) {
	for _, shards := range []int{1, 3} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				postingsRun(t, shards, seed)
			})
		}
	}
}

func postingsRun(t *testing.T, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := NewShardedStore(shards)
	tbl, err := s.CreateTable("t", []Column{
		{Name: "id", Type: sqldb.TypeInt, PrimaryKey: true},
		{Name: "a", Type: sqldb.TypeInt},
		{Name: "b", Type: sqldb.TypeInt},
		{Name: "c", Type: sqldb.TypeInt},
		{Name: "d", Type: sqldb.TypeText},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddOrderedIndex("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddIndex("c", false); err != nil {
		t.Fatal(err)
	}
	val := func(n int) sqldb.Value {
		if rng.Intn(8) == 0 {
			return nil
		}
		return int64(rng.Intn(n))
	}
	// b mostly ascends with the row, as an order number does, so the oldest
	// row under a key sits at the front of its (a, b) posting list.
	nextKey := int64(0)
	insert := func() {
		nextKey++
		if _, err := insertRow(tbl, Row{nextKey, val(3), nextKey, val(4), fmt.Sprint("d", nextKey)}); err != nil {
			t.Fatal(err)
		}
	}
	// idOf finds a live row's id through its primary key.
	idOf := func(r Row) RowID {
		ids := tbl.Lookup(0, r[0])
		if len(ids) != 1 {
			t.Fatalf("primary key %v has ids %v", r[0], ids)
		}
		return ids[0]
	}
	update := func(r Row, change func(Row)) {
		row := append(Row(nil), r...)
		change(row)
		if _, err := updateRow(tbl, idOf(r), row); err != nil {
			t.Fatal(err)
		}
	}
	stop := errors.New("stop")
	var pins []*Snap
	check := func(step int) {
		t.Helper()
		if len(pins) == 0 {
			checkExactPostings(t, tbl, step)
		}
		for _, snap := range append([]*Snap{nil}, pins...) {
			rows := collectScan(t, tbl, snap)
			for _, col := range []int{0, 1, 3} {
				for key := int64(0); key < 4; key++ {
					var got, want []Row
					if err := tbl.LookupEach(col, key, snap, func(r Row) error {
						got = append(got, r)
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					for _, r := range rows {
						if r[col] == key {
							want = append(want, r)
						}
					}
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("step %d: LookupEach col %d = %d snap %v:\n got %v\nwant %v", step, col, key, snap != nil, got, want)
					}
				}
			}
		}
	}
	for i := 0; i < 30; i++ {
		insert()
	}
	for step := 0; step < 400; step++ {
		rows := collectScan(t, tbl, nil)
		k := rng.Intn(24)
		if len(rows) == 0 {
			k = 0
		}
		switch {
		case k < 6:
			insert()
		case k < 9: // no indexed column changes
			update(rows[rng.Intn(len(rows))], func(r Row) { r[4] = fmt.Sprint("u", step) })
		case k < 12: // only b, the ordering column, changes
			update(rows[rng.Intn(len(rows))], func(r Row) { r[2] = val(40) })
		case k < 14: // a or c changes, sometimes to or from NULL
			update(rows[rng.Intn(len(rows))], func(r Row) { r[1+2*rng.Intn(2)] = val(4) })
		case k < 15: // a fresh primary key: on a sharded view, a move
			update(rows[rng.Intn(len(rows))], func(r Row) { nextKey++; r[0] = nextKey })
		case k < 18: // a run of deletes of the oldest row under one key
			a := int64(rng.Intn(3))
			for n := 1 + rng.Intn(4); n > 0; n-- {
				var oldest Row
				tbl.ProbeEach(1, a, Range{}, ByKey, nil, func(r Row) error {
					oldest = r
					return stop
				})
				if oldest == nil {
					break
				}
				deleteRow(tbl, idOf(oldest))
			}
		case k < 20:
			deleteRow(tbl, idOf(rows[rng.Intn(len(rows))]))
		case k < 22 && len(pins) < 3:
			pins = append(pins, s.Snapshot())
		case len(pins) > 0:
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
	check(400)
}
