package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/sqldb"
)

// These tests pin the ordered row heap: whatever interleaving of inserts,
// updates, cross-shard moves, deletes and sweep reclaims a table has been
// through,
// every scan — latest or pinned snapshot, plain or sharded — enumerates
// exactly the rows a sorted reference holds, in ascending id order.

// checkHeap asserts the heap's structural invariants on a plain table or on
// every part of a view.
func checkHeap(t *testing.T, tbl *Table) {
	t.Helper()
	for _, p := range append([]*Table{tbl}, tbl.parts...) {
		dead := 0
		for i, s := range p.rows.slots {
			if i > 0 && p.rows.slots[i-1].id >= s.id {
				t.Fatalf("heap ids not strictly ascending at %d: %d then %d", i, p.rows.slots[i-1].id, s.id)
			}
			if s.head == nil {
				dead++
			}
		}
		if dead != p.rows.dead {
			t.Fatalf("heap counts %d tombstones, holds %d", p.rows.dead, dead)
		}
		if dead*2 > len(p.rows.slots) {
			t.Fatalf("heap left uncompacted: %d tombstones in %d slots", dead, len(p.rows.slots))
		}
	}
}

// scanModel is the sorted reference: the live rows by id.
type scanModel map[RowID]Row

func (m scanModel) sorted() ([]RowID, []Row) {
	ids := make([]RowID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	rows := make([]Row, len(ids))
	for i, id := range ids {
		rows[i] = m[id]
	}
	return ids, rows
}

func (m scanModel) pick(rng *rand.Rand) (RowID, bool) {
	ids, _ := m.sorted()
	if len(ids) == 0 {
		return 0, false
	}
	return ids[rng.Intn(len(ids))], true
}

func TestScanOrderUnderMutation(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				scanOrderRun(t, shards, seed)
			})
		}
	}
}

func scanOrderRun(t *testing.T, shards int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s, tbl := shardedStore(t, shards)
	model := scanModel{}
	nextKey := int64(0)
	type pinned struct {
		snap *Snap
		rows []Row
	}
	var pins []pinned

	insert := func() RowID {
		nextKey++
		id, err := insertRow(tbl, Row{nextKey, fmt.Sprintf("v%d", nextKey)})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	update := func(id RowID, step int) Row {
		k := model[id][0]
		if rng.Intn(3) == 0 {
			// A fresh key: on a sharded store the row may move parts.
			nextKey++
			k = nextKey
		}
		old, err := updateRow(tbl, id, Row{k, fmt.Sprintf("u%d", step)})
		if err != nil {
			t.Fatal(err)
		}
		return old
	}
	check := func(step int) {
		t.Helper()
		wantIDs, wantRows := model.sorted()
		var gotIDs []RowID
		var gotRows []Row
		tbl.Scan(func(id RowID, r Row) bool {
			gotIDs = append(gotIDs, id)
			gotRows = append(gotRows, r)
			return true
		})
		// fmt.Sprint compares sequences without telling nil from empty.
		if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
			t.Fatalf("step %d: Scan ids %v, want %v", step, gotIDs, wantIDs)
		}
		if fmt.Sprint(gotRows) != fmt.Sprint(wantRows) {
			t.Fatalf("step %d: Scan rows %v, want %v", step, gotRows, wantRows)
		}
		if got := collectScan(t, tbl, nil); fmt.Sprint(got) != fmt.Sprint(wantRows) {
			t.Fatalf("step %d: ScanEach(nil) %v, want %v", step, got, wantRows)
		}
		for i, p := range pins {
			if got := collectScan(t, tbl, p.snap); fmt.Sprint(got) != fmt.Sprint(p.rows) {
				t.Fatalf("step %d: snapshot %d scans %v, pinned %v", step, i, got, p.rows)
			}
		}
		if tbl.NumRows() != len(model) {
			t.Fatalf("step %d: NumRows %d, model %d", step, tbl.NumRows(), len(model))
		}
		checkHeap(t, tbl)
	}
	stored := func(id RowID) Row {
		r, ok := tbl.RowAt(id, nil)
		if !ok {
			t.Fatalf("row %d not live after its own write", id)
		}
		return r
	}

	const steps = 500
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(100); {
		case op < 40:
			id := insert()
			model[id] = stored(id)
		case op < 55:
			if id, ok := model.pick(rng); ok {
				update(id, step)
				model[id] = stored(id)
			}
		case op < 80:
			if id, ok := model.pick(rng); ok {
				if _, ok := deleteRow(tbl, id); !ok {
					t.Fatalf("step %d: delete of live row %d failed", step, id)
				}
				delete(model, id)
			}
		case op < 90:
			// A primary-key move: on a sharded store the row usually lands
			// on a part whose heap holds higher ids (a mid-slice insert),
			// perhaps where it lived before and left a dead chain or a
			// reclaimed slot.
			if id, ok := model.pick(rng); ok {
				nextKey++
				if _, err := updateRow(tbl, id, Row{nextKey, fmt.Sprintf("m%d", step)}); err != nil {
					t.Fatal(err)
				}
				model[id] = stored(id)
			}
		case op < 95:
			_, rows := model.sorted()
			pins = append(pins, pinned{s.Snapshot(), rows})
		default:
			if len(pins) > 0 {
				i := rng.Intn(len(pins))
				pins[i].snap.Release()
				pins = append(pins[:i], pins[i+1:]...)
			}
		}
		check(step)
	}
	for _, p := range pins {
		p.snap.Release()
	}
	pins = nil
	check(steps)
	if tbl.PendingGC() != 0 {
		t.Fatalf("garbage left after the last snapshot released: %d", tbl.PendingGC())
	}
	// Drain to empty — every slot reclaimed and compacted away — and refill.
	ids, _ := model.sorted()
	for i, id := range ids {
		deleteRow(tbl, id)
		delete(model, id)
		check(steps + 1 + i)
	}
	for i := 0; i < 3; i++ {
		id := insert()
		model[id] = stored(id)
	}
	check(steps + len(ids) + 1)
}

// TestRowHeapSparseAndReclaimedIDs covers the two id shapes the dense
// fast path must not assume: sparse ids (a shard part sees a subset of the
// global sequence) and ids re-inserted after the slot was reclaimed.
func TestRowHeapSparseAndReclaimedIDs(t *testing.T) {
	var h rowHeap
	v := func(n int64) *version { return &version{row: Row{n}, to: liveEpoch} }
	for _, id := range []RowID{3, 4, 9, 20, 21, 50} {
		h.set(id, v(int64(id)))
	}
	for _, id := range []RowID{3, 4, 9, 20, 21, 50} {
		if got := h.get(id); got == nil || got.row[0] != int64(id) {
			t.Fatalf("get(%d) = %v", id, got)
		}
	}
	for _, id := range []RowID{1, 5, 19, 22, 51, 1000} {
		if h.get(id) != nil {
			t.Fatalf("get(%d) found a row that was never stored", id)
		}
	}
	// Tombstone then revive in place.
	h.drop(9)
	if h.get(9) != nil || h.dead != 1 {
		t.Fatalf("drop(9): head %v, dead %d", h.get(9), h.dead)
	}
	h.set(9, v(90))
	if got := h.get(9); got == nil || got.row[0] != int64(90) || h.dead != 0 {
		t.Fatalf("revive 9: %v, dead %d", got, h.dead)
	}
	// Reclaim most rows so compact drops the slots, then restore one of the
	// dropped ids: it must land between its neighbours.
	for _, id := range []RowID{3, 4, 9, 20} {
		h.drop(id)
	}
	h.compact()
	if len(h.slots) != 2 || h.dead != 0 {
		t.Fatalf("compact kept %d slots, %d dead", len(h.slots), h.dead)
	}
	h.set(9, v(9))
	h.set(2, v(2))
	var ids []RowID
	for _, s := range h.slots {
		ids = append(ids, s.id)
	}
	if want := []RowID{2, 9, 21, 50}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("ids after mid-heap restores %v, want %v", ids, want)
	}
}

// BenchmarkScanEach measures a full scan per iteration: ns/op is linear in
// rows, and allocs/op must not depend on them (0 on a plain table, the
// cursor slice on a sharded view).
func BenchmarkScanEach(b *testing.B) {
	for _, c := range []struct {
		name         string
		rows, shards int
	}{
		{"rows=1e3", 1000, 1},
		{"rows=1e5", 100000, 1},
		{"rows=1e5,shards=4", 100000, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewShardedStore(c.shards)
			tbl, err := s.CreateTable("kv", []Column{
				{Name: "k", Type: sqldb.TypeInt, PrimaryKey: true},
				{Name: "v", Type: sqldb.TypeText},
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < c.rows; i++ {
				if _, err := insertRow(tbl, Row{int64(i), "v"}); err != nil {
					b.Fatal(err)
				}
			}
			snap := s.Snapshot()
			defer snap.Release()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				if err := tbl.ScanEach(snap, func(Row) error { n++; return nil }); err != nil || n != c.rows {
					b.Fatalf("scanned %d of %d rows: %v", n, c.rows, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.rows), "ns/row")
		})
	}
}
