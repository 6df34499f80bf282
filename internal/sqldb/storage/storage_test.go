package storage

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/sqldb"
)

func patientTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := NewTable("patients", []Column{
		{Name: "id", Type: sqldb.TypeInt, PrimaryKey: true},
		{Name: "name", Type: sqldb.TypeText},
		{Name: "age", Type: sqldb.TypeInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestNewTableRejectsEmpty(t *testing.T) {
	if _, err := NewTable("t", nil); err == nil {
		t.Fatal("expected error for empty column list")
	}
}

func TestNewTableRejectsDuplicateColumns(t *testing.T) {
	_, err := NewTable("t", []Column{
		{Name: "a", Type: sqldb.TypeInt},
		{Name: "A", Type: sqldb.TypeInt},
	})
	if err == nil {
		t.Fatal("expected duplicate column error")
	}
}

func TestNewTableRejectsTwoPrimaryKeys(t *testing.T) {
	_, err := NewTable("t", []Column{
		{Name: "a", Type: sqldb.TypeInt, PrimaryKey: true},
		{Name: "b", Type: sqldb.TypeInt, PrimaryKey: true},
	})
	if err == nil {
		t.Fatal("expected multiple primary key error")
	}
}

func TestInsertAndGet(t *testing.T) {
	tbl := patientTable(t)
	id, err := tbl.Insert(Row{int64(1), "Ann", int64(30)})
	if err != nil {
		t.Fatal(err)
	}
	row, ok := tbl.RowAt(id, nil)
	if !ok {
		t.Fatal("row not found")
	}
	if row[1] != "Ann" || row[2] != int64(30) {
		t.Fatalf("row = %v", row)
	}
}

func TestInsertCoercesTypes(t *testing.T) {
	tbl := patientTable(t)
	id, err := tbl.Insert(Row{1, "Bob", 25}) // plain ints, not int64
	if err != nil {
		t.Fatal(err)
	}
	row, _ := tbl.RowAt(id, nil)
	if row[0] != int64(1) || row[2] != int64(25) {
		t.Fatalf("coercion failed: %v", row)
	}
}

func TestInsertWrongArity(t *testing.T) {
	tbl := patientTable(t)
	if _, err := tbl.Insert(Row{int64(1)}); err == nil {
		t.Fatal("expected arity error")
	}
}

func TestInsertWrongType(t *testing.T) {
	tbl := patientTable(t)
	if _, err := tbl.Insert(Row{int64(1), int64(5), int64(30)}); err == nil {
		t.Fatal("expected type error for int name")
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	tbl := patientTable(t)
	if _, err := tbl.Insert(Row{int64(1), "Ann", int64(30)}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert(Row{int64(1), "Bob", int64(20)}); err == nil {
		t.Fatal("expected duplicate key error")
	}
}

// TestRowOwnership: Insert and Update adopt the caller's row — each value is
// coerced in place and the slice becomes the stored image, indexed under the
// coerced values — and a row rejected for a duplicate key, a wrong arity or
// an uncoercible value leaves the rows, every index and the id allocator as
// they were.
func TestRowOwnership(t *testing.T) {
	tbl := patientTable(t)
	if err := tbl.AddIndex("age", false); err != nil {
		t.Fatal(err)
	}
	adopted := func(step string, id RowID, vals Row, age int64) {
		t.Helper()
		stored, ok := tbl.RowAt(id, nil)
		if !ok || &stored[0] != &vals[0] {
			t.Fatalf("%s: stored image %v is not the caller's row", step, stored)
		}
		if vals[0] != int64(1) || vals[2] != age {
			t.Fatalf("%s: row not coerced in place: %#v", step, vals)
		}
		if ids := tbl.Lookup(2, age); len(ids) != 1 || ids[0] != id {
			t.Fatalf("%s: age index holds %v for %d", step, ids, age)
		}
	}
	vals := Row{1, "Bob", 25} // plain ints, not int64
	id, err := tbl.Insert(vals)
	if err != nil {
		t.Fatal(err)
	}
	adopted("insert", id, vals, 25)
	vals = Row{1.0, "Bob", 26} // a float key, coerced to the INT column
	if _, err := tbl.Update(id, vals); err != nil {
		t.Fatal(err)
	}
	adopted("update", id, vals, 26)
	id2, err := tbl.Insert(Row{int64(2), "Cid", int64(40)})
	if err != nil {
		t.Fatal(err)
	}

	state := func() string {
		return fmt.Sprint(snapshot(tbl), tbl.indexes, tbl.NumRows(), tbl.nextID)
	}
	before := state()
	for _, bad := range []Row{
		{int64(1), "Dup", int64(50)},
		{int64(3), "Short"},
		{int64(3), int64(5), int64(50)},
	} {
		if _, err := tbl.Insert(bad); err == nil {
			t.Fatalf("Insert(%v) admitted", bad)
		}
		if _, err := tbl.Update(id2, bad); err == nil {
			t.Fatalf("Update(%v) admitted", bad)
		}
	}
	if after := state(); after != before {
		t.Fatalf("rejected rows changed the table:\n before %s\n after  %s", before, after)
	}
}

func TestDelete(t *testing.T) {
	tbl := patientTable(t)
	id, _ := tbl.Insert(Row{int64(1), "Ann", int64(30)})
	old, ok := tbl.Delete(id)
	if !ok || old[1] != "Ann" {
		t.Fatalf("Delete = %v, %v", old, ok)
	}
	if _, ok := tbl.RowAt(id, nil); ok {
		t.Fatal("row still present after delete")
	}
	if _, ok := tbl.Delete(id); ok {
		t.Fatal("double delete succeeded")
	}
	if got := tbl.Lookup(0, int64(1)); len(got) != 0 {
		t.Fatal("index still references deleted row")
	}
}

func TestUpdate(t *testing.T) {
	tbl := patientTable(t)
	id, _ := tbl.Insert(Row{int64(1), "Ann", int64(30)})
	old, err := tbl.Update(id, Row{int64(1), "Ann", int64(31)})
	if err != nil {
		t.Fatal(err)
	}
	if old[2] != int64(30) {
		t.Fatalf("old image = %v", old)
	}
	row, _ := tbl.RowAt(id, nil)
	if row[2] != int64(31) {
		t.Fatalf("row = %v", row)
	}
}

func TestUpdateMaintainsIndex(t *testing.T) {
	tbl := patientTable(t)
	id, _ := tbl.Insert(Row{int64(1), "Ann", int64(30)})
	if _, err := tbl.Update(id, Row{int64(2), "Ann", int64(30)}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Lookup(0, int64(1)); len(got) != 0 {
		t.Fatal("stale index entry for old pk")
	}
	if got := tbl.Lookup(0, int64(2)); len(got) != 1 || got[0] != id {
		t.Fatalf("Lookup(2) = %v", got)
	}
}

func TestUpdateUniqueViolation(t *testing.T) {
	tbl := patientTable(t)
	tbl.Insert(Row{int64(1), "Ann", int64(30)})
	id2, _ := tbl.Insert(Row{int64(2), "Bob", int64(20)})
	if _, err := tbl.Update(id2, Row{int64(1), "Bob", int64(20)}); err == nil {
		t.Fatal("expected unique violation")
	}
}

func TestSecondaryIndex(t *testing.T) {
	tbl := patientTable(t)
	tbl.Insert(Row{int64(1), "Ann", int64(30)})
	tbl.Insert(Row{int64(2), "Bob", int64(30)})
	tbl.Insert(Row{int64(3), "Cid", int64(40)})
	if err := tbl.AddIndex("age", false); err != nil {
		t.Fatal(err)
	}
	ord, _ := tbl.ColOrdinal("age")
	ids := tbl.Lookup(ord, int64(30))
	if len(ids) != 2 {
		t.Fatalf("Lookup(age=30) = %v, want 2 rows", ids)
	}
	// New inserts must be indexed too.
	tbl.Insert(Row{int64(4), "Dee", int64(30)})
	if ids := tbl.Lookup(ord, int64(30)); len(ids) != 3 {
		t.Fatalf("Lookup after insert = %v, want 3 rows", ids)
	}
}

func TestAddIndexDuplicate(t *testing.T) {
	tbl := patientTable(t)
	if err := tbl.AddIndex("age", false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddIndex("age", false); err == nil {
		t.Fatal("expected duplicate index error")
	}
	if err := tbl.AddIndex("missing", false); err == nil {
		t.Fatal("expected unknown column error")
	}
}

func TestUniqueSecondaryIndexRejectsDuplicates(t *testing.T) {
	tbl := patientTable(t)
	tbl.Insert(Row{int64(1), "Ann", int64(30)})
	tbl.Insert(Row{int64(2), "Bob", int64(30)})
	if err := tbl.AddIndex("age", true); err == nil {
		t.Fatal("expected unique index build failure over duplicates")
	}
}

func TestNullsNotIndexed(t *testing.T) {
	tbl := patientTable(t)
	tbl.AddIndex("age", false)
	tbl.Insert(Row{int64(1), "Ann", nil})
	ord, _ := tbl.ColOrdinal("age")
	if ids := tbl.Lookup(ord, nil); len(ids) != 0 {
		t.Fatalf("NULL lookup = %v, want empty", ids)
	}
}

func TestScanOrderAndEarlyStop(t *testing.T) {
	tbl := patientTable(t)
	for i := 1; i <= 5; i++ {
		tbl.Insert(Row{int64(i), "P", int64(i * 10)})
	}
	var seen []int64
	tbl.Scan(func(id RowID, r Row) bool {
		seen = append(seen, r[0].(int64))
		return len(seen) < 3
	})
	if len(seen) != 3 || seen[0] != 1 || seen[2] != 3 {
		t.Fatalf("scan = %v", seen)
	}
}

func TestStoreCreateAndResolve(t *testing.T) {
	s := NewStore()
	s.Lock()
	defer s.Unlock()
	if _, err := s.CreateTable("Users", []Column{{Name: "id", Type: sqldb.TypeInt, PrimaryKey: true}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateTable("users", nil); err == nil {
		t.Fatal("expected duplicate table error (case-insensitive)")
	}
	if _, ok := s.Table("USERS"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if names := s.TableNames(); len(names) != 1 || names[0] != "Users" {
		t.Fatalf("TableNames = %v", names)
	}
}

// Property: after inserting N distinct keys, every key is retrievable via
// the primary key index and NumRows matches.
func TestQuickInsertLookup(t *testing.T) {
	f := func(keys []int16) bool {
		tbl, _ := NewTable("t", []Column{
			{Name: "id", Type: sqldb.TypeInt, PrimaryKey: true},
			{Name: "v", Type: sqldb.TypeInt},
		})
		seen := make(map[int64]bool)
		inserted := 0
		for _, k := range keys {
			key := int64(k)
			_, err := tbl.Insert(Row{key, key * 2})
			if seen[key] {
				if err == nil {
					return false // duplicate must fail
				}
				continue
			}
			if err != nil {
				return false
			}
			seen[key] = true
			inserted++
		}
		if tbl.NumRows() != inserted {
			return false
		}
		for key := range seen {
			ids := tbl.Lookup(0, key)
			if len(ids) != 1 {
				return false
			}
			row, ok := tbl.RowAt(ids[0], nil)
			if !ok || row[1] != key*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func snapshot(t *Table) map[RowID]Row {
	out := make(map[RowID]Row)
	t.Scan(func(id RowID, r Row) bool {
		out[id] = append(Row(nil), r...)
		return true
	})
	return out
}
