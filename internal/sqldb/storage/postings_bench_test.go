package storage

import (
	"fmt"
	"testing"

	"repro/internal/sqldb"
)

// benchTable builds a table with an indexed fk column carrying fanout rows
// per key — the shape the merge optimizer's IN-list lookups hit.
func benchTable(b *testing.B, keys, fanout int) *Table {
	b.Helper()
	t, err := NewTable("bench", []Column{
		{Name: "id", Type: sqldb.TypeInt, PrimaryKey: true},
		{Name: "fk", Type: sqldb.TypeInt},
		{Name: "v", Type: sqldb.TypeText},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := t.AddIndex("fk", false); err != nil {
		b.Fatal(err)
	}
	id := int64(1)
	for k := 0; k < keys; k++ {
		for f := 0; f < fanout; f++ {
			if _, err := t.Insert(Row{id, int64(k), fmt.Sprintf("row-%d", id)}); err != nil {
				b.Fatal(err)
			}
			id++
		}
	}
	return t
}

// BenchmarkIndexInsert measures per-row index maintenance cost: PK plus one
// secondary index, one-column or two-column. The two-column case posts in
// ascending (ordering value, id) under 64 keys — the append-at-tail shape of
// an order id that grows with the table — and must stay amortised O(1): a
// per-insert re-sort would show as ns/op growing with b.N.
func BenchmarkIndexInsert(b *testing.B) {
	for _, bc := range []struct {
		name  string
		index func(*Table) error
	}{
		{"one-column", func(t *Table) error { return t.AddIndex("fk", false) }},
		{"two-column", func(t *Table) error { return t.AddOrderedIndex("fk", "seq") }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			t, err := NewTable("bench", []Column{
				{Name: "id", Type: sqldb.TypeInt, PrimaryKey: true},
				{Name: "fk", Type: sqldb.TypeInt},
				{Name: "seq", Type: sqldb.TypeInt},
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := bc.index(t); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := t.Insert(Row{int64(i + 1), int64(i % 64), int64(i / 64)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOrderedProbe is the number the two-column index is judged by:
// the first row of a key's posting list in ascending order, the last (first
// in descending order) and a range of 20 in the middle, with 1 k and with
// 100 k postings under the key. The probes are binary searches, not walks:
// the 100 k rows must read within 1.5x of the 1 k rows.
func BenchmarkOrderedProbe(b *testing.B) {
	for _, n := range []int{1_000, 100_000} {
		t, err := NewTable("bench", []Column{
			{Name: "id", Type: sqldb.TypeInt, PrimaryKey: true},
			{Name: "fk", Type: sqldb.TypeInt},
			{Name: "seq", Type: sqldb.TypeInt},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := t.AddOrderedIndex("fk", "seq"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := t.Insert(Row{int64(i + 1), int64(7), int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
		mid := int64(n / 2)
		for _, bc := range []struct {
			name  string
			r     Range
			o     Order
			first int64 // seq of the first row delivered
			rows  int   // rows taken before stopping the probe
		}{
			{"first", Range{}, ByKey, 0, 1},
			{"last", Range{}, ByKeyDesc, int64(n - 1), 1},
			{"range20", Range{Lo: mid, Hi: mid + 20, HiExcl: true}, ByID, mid, 20},
		} {
			b.Run(fmt.Sprintf("%s/postings=%d", bc.name, n), func(b *testing.B) {
				stop := fmt.Errorf("enough")
				var first sqldb.Value
				rows := 0
				take := func(r Row) error {
					if rows == 0 {
						first = r[2]
					}
					if rows++; rows == bc.rows && bc.o != ByID {
						return stop
					}
					return nil
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rows = 0
					if err := t.ProbeEach(1, int64(7), bc.r, bc.o, nil, take); (err != nil && err != stop) || rows != bc.rows || first != bc.first {
						b.Fatalf("%d rows from seq %v, err %v", rows, first, err)
					}
				}
			})
		}
	}
}

// BenchmarkIndexLookup measures a secondary-index point lookup returning a
// moderate posting list, the engine's hottest access path.
func BenchmarkIndexLookup(b *testing.B) {
	t := benchTable(b, 64, 16)
	ord, _ := t.ColOrdinal("fk")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := t.Lookup(ord, int64(i%64))
		if len(ids) != 16 {
			b.Fatalf("got %d ids", len(ids))
		}
	}
}

// BenchmarkIndexUpdate measures updating an indexed column (remove + add on
// two indexes).
func BenchmarkIndexUpdate(b *testing.B) {
	t := benchTable(b, 64, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := RowID(i%(64*16) + 1)
		stored, _ := t.RowAt(id, nil)
		row := append(Row(nil), stored...)
		row[1] = int64((i + 1) % 64)
		if _, err := t.Update(id, row); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLookupEach is the number the one-posting-rule design is judged
// by: the read path's index probe on a plain table (primary key; a
// secondary index carrying 8 rows per key) and on a 2-shard view (a keyed
// route on the partition column; a fan-out over both parts merging 8 rows).
// No case may gain an allocation.
func BenchmarkLookupEach(b *testing.B) {
	sharded := func(b *testing.B) *Table {
		t, err := NewShardedStore(2).CreateTable("bench", []Column{
			{Name: "id", Type: sqldb.TypeInt, PrimaryKey: true},
			{Name: "fk", Type: sqldb.TypeInt},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := t.AddIndex("fk", false); err != nil {
			b.Fatal(err)
		}
		for id := int64(1); id <= 64*8; id++ {
			if _, err := t.Insert(Row{id, (id - 1) / 8}); err != nil {
				b.Fatal(err)
			}
		}
		return t
	}
	for _, bc := range []struct {
		name string
		tbl  func(*testing.B) *Table
		col  string
		keys int64
		rows int
	}{
		{"plain/pk", func(b *testing.B) *Table { return benchTable(b, 64, 8) }, "id", 64 * 8, 1},
		{"plain/secondary8", func(b *testing.B) *Table { return benchTable(b, 64, 8) }, "fk", 64, 8},
		{"view2/keyed", sharded, "id", 64 * 8, 1},
		{"view2/fanout8", sharded, "fk", 64, 8},
	} {
		b.Run(bc.name, func(b *testing.B) {
			t := bc.tbl(b)
			ord, _ := t.ColOrdinal(bc.col)
			rows := 0
			count := func(Row) error { rows++; return nil }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows = 0
				// Primary keys start at 1, fk values at 0.
				key := int64(i)%bc.keys + int64(bc.rows&1)
				if err := t.LookupEach(ord, key, nil, count); err != nil || rows != bc.rows {
					b.Fatalf("key %d: %d rows, err %v", key, rows, err)
				}
			}
		})
	}
}
