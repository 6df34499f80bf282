package storage

import (
	"testing"

	"repro/internal/sqldb"
)

// These tests pin the MVCC substrate: snapshot visibility, atomic
// statement publication, and version garbage collection once the last
// pinning snapshot releases.

func mvccStore(t *testing.T) (*Store, *Table) {
	t.Helper()
	s := NewStore()
	tbl, err := s.CreateTable("kv", []Column{
		{Name: "k", Type: sqldb.TypeInt, PrimaryKey: true},
		{Name: "v", Type: sqldb.TypeText},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// lookupOne reads the single visible row for k through the snapshot path.
func lookupOne(t *testing.T, tbl *Table, k int64, snap *Snap) (Row, bool) {
	t.Helper()
	var got Row
	if err := tbl.LookupEach(0, k, snap, func(r Row) error {
		got = r
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got, got != nil
}

func TestSnapshotSeesPinnedState(t *testing.T) {
	s, tbl := mvccStore(t)
	id, err := tbl.Insert(Row{int64(1), "old"})
	if err != nil {
		t.Fatal(err)
	}

	snap := s.Snapshot()
	defer snap.Release()

	if _, err := tbl.Update(id, Row{int64(1), "new"}); err != nil {
		t.Fatal(err)
	}

	// The snapshot still reads the old image; the latest path the new one.
	if r, ok := lookupOne(t, tbl, 1, snap); !ok || r[1] != "old" {
		t.Fatalf("snapshot read = %v, want old", r)
	}
	if r, ok := lookupOne(t, tbl, 1, nil); !ok || r[1] != "new" {
		t.Fatalf("latest read = %v, want new", r)
	}

	// A snapshot acquired after the update sees the new image.
	snap2 := s.Snapshot()
	defer snap2.Release()
	if r, ok := lookupOne(t, tbl, 1, snap2); !ok || r[1] != "new" {
		t.Fatalf("fresh snapshot read = %v, want new", r)
	}
}

func TestSnapshotDoesNotSeeDeleteOrInsert(t *testing.T) {
	s, tbl := mvccStore(t)
	idA, err := tbl.Insert(Row{int64(1), "a"})
	if err != nil {
		t.Fatal(err)
	}

	snap := s.Snapshot()
	defer snap.Release()

	if _, ok := tbl.Delete(idA); !ok {
		t.Fatal("delete failed")
	}
	if _, err := tbl.Insert(Row{int64(2), "b"}); err != nil {
		t.Fatal(err)
	}

	// Snapshot: row 1 alive, row 2 absent (no phantom).
	if _, ok := lookupOne(t, tbl, 1, snap); !ok {
		t.Fatal("snapshot lost a row deleted after acquire")
	}
	if _, ok := lookupOne(t, tbl, 2, snap); ok {
		t.Fatal("snapshot sees a row inserted after acquire")
	}
	// Latest: the reverse.
	if _, ok := lookupOne(t, tbl, 1, nil); ok {
		t.Fatal("latest path sees deleted row")
	}
	if _, ok := lookupOne(t, tbl, 2, nil); !ok {
		t.Fatal("latest path missing inserted row")
	}

	// Full scans agree with the point lookups.
	count := func(snap *Snap) int {
		n := 0
		if err := tbl.ScanEach(snap, func(Row) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := count(snap); got != 1 {
		t.Fatalf("snapshot scan = %d rows, want 1", got)
	}
	if got := count(nil); got != 1 {
		t.Fatalf("latest scan = %d rows, want 1", got)
	}
}

// TestStatementScopePublishesAtomically: mutations inside a BeginStmt /
// EndStmt scope become visible all at once — a snapshot acquired mid-scope
// sees none of them.
func TestStatementScopePublishesAtomically(t *testing.T) {
	s, tbl := mvccStore(t)

	s.BeginStmt()
	if _, err := tbl.Insert(Row{int64(1), "a"}); err != nil {
		t.Fatal(err)
	}
	mid := s.Snapshot()
	defer mid.Release()
	if _, err := tbl.Insert(Row{int64(2), "b"}); err != nil {
		t.Fatal(err)
	}
	s.EndStmt()

	if _, ok := lookupOne(t, tbl, 1, mid); ok {
		t.Fatal("mid-statement snapshot sees an unpublished insert")
	}
	after := s.Snapshot()
	defer after.Release()
	for k := int64(1); k <= 2; k++ {
		if _, ok := lookupOne(t, tbl, k, after); !ok {
			t.Fatalf("post-statement snapshot missing row %d", k)
		}
	}
}

// TestVersionGCAfterLastSnapshotReleases: dead versions survive exactly as
// long as a snapshot can see them.
func TestVersionGCAfterLastSnapshotReleases(t *testing.T) {
	s, tbl := mvccStore(t)
	id, err := tbl.Insert(Row{int64(1), "v0"})
	if err != nil {
		t.Fatal(err)
	}

	snap := s.Snapshot()
	if _, err := tbl.Update(id, Row{int64(1), "v1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Update(id, Row{int64(1), "v2"}); err != nil {
		t.Fatal(err)
	}

	if got := tbl.Versions(id); got != 3 {
		t.Fatalf("chain length = %d with snapshot pinned, want 3", got)
	}
	if tbl.PendingGC() == 0 {
		t.Fatal("no deferred garbage recorded while snapshot pins old versions")
	}
	if r, ok := lookupOne(t, tbl, 1, snap); !ok || r[1] != "v0" {
		t.Fatalf("pinned snapshot reads %v, want v0", r)
	}

	snap.Release()
	if got := tbl.Versions(id); got != 1 {
		t.Fatalf("chain length = %d after release, want 1", got)
	}
	if got := tbl.PendingGC(); got != 0 {
		t.Fatalf("pending garbage = %d after release, want 0", got)
	}
	if r, ok := lookupOne(t, tbl, 1, nil); !ok || r[1] != "v2" {
		t.Fatalf("latest read after sweep = %v, want v2", r)
	}
}

// TestNoSnapshotSweepsInline: with no snapshot active, superseded versions
// reclaim at statement publication — single-session replays never grow
// chains or stale postings.
func TestNoSnapshotSweepsInline(t *testing.T) {
	_, tbl := mvccStore(t)
	id, err := tbl.Insert(Row{int64(1), "a"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Update(id, Row{int64(1), "b"}); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Versions(id); got != 1 {
		t.Fatalf("chain length = %d with no snapshots, want 1", got)
	}
	if got := tbl.PendingGC(); got != 0 {
		t.Fatalf("pending garbage = %d with no snapshots, want 0", got)
	}

	// A deleted row's chain disappears entirely.
	if _, ok := tbl.Delete(id); !ok {
		t.Fatal("delete failed")
	}
	if got := tbl.Versions(id); got != 0 {
		t.Fatalf("chain length = %d after delete, want 0", got)
	}
	if tbl.NumRows() != 0 {
		t.Fatalf("NumRows = %d after delete, want 0", tbl.NumRows())
	}
}

// TestGCKeepsReusedIndexValues: an A -> B -> A value chain must not lose
// its index posting for A when the middle B version is reclaimed.
func TestGCKeepsReusedIndexValues(t *testing.T) {
	s := NewStore()
	tbl, err := s.CreateTable("kv", []Column{
		{Name: "k", Type: sqldb.TypeInt, PrimaryKey: true},
		{Name: "v", Type: sqldb.TypeText},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddIndex("v", false); err != nil {
		t.Fatal(err)
	}
	id, err := tbl.Insert(Row{int64(1), "A"})
	if err != nil {
		t.Fatal(err)
	}

	snap := s.Snapshot()
	if _, err := tbl.Update(id, Row{int64(1), "B"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Update(id, Row{int64(1), "A"}); err != nil {
		t.Fatal(err)
	}
	snap.Release()

	vOrd, _ := tbl.ColOrdinal("v")
	if ids := tbl.Lookup(vOrd, "A"); len(ids) != 1 || ids[0] != id {
		t.Fatalf("Lookup(A) = %v after sweep, want [%d]", ids, id)
	}
	if ids := tbl.Lookup(vOrd, "B"); len(ids) != 0 {
		t.Fatalf("Lookup(B) = %v after sweep, want empty", ids)
	}
}

// TestLookupFiltersStalePostings: while garbage is pending, index lookups
// must not surface superseded values.
func TestLookupFiltersStalePostings(t *testing.T) {
	s := NewStore()
	tbl, err := s.CreateTable("kv", []Column{
		{Name: "k", Type: sqldb.TypeInt, PrimaryKey: true},
		{Name: "v", Type: sqldb.TypeText},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddIndex("v", false); err != nil {
		t.Fatal(err)
	}
	id, err := tbl.Insert(Row{int64(1), "old"})
	if err != nil {
		t.Fatal(err)
	}

	snap := s.Snapshot() // pin so the stale posting stays
	defer snap.Release()
	if _, err := tbl.Update(id, Row{int64(1), "new"}); err != nil {
		t.Fatal(err)
	}

	vOrd, _ := tbl.ColOrdinal("v")
	if ids := tbl.Lookup(vOrd, "old"); len(ids) != 0 {
		t.Fatalf("latest Lookup(old) = %v, want empty", ids)
	}
	if ids := tbl.Lookup(vOrd, "new"); len(ids) != 1 {
		t.Fatalf("latest Lookup(new) = %v, want one id", ids)
	}
	// The pinned snapshot still finds the old value through the index.
	var hits int
	if err := tbl.LookupEach(vOrd, "old", snap, func(r Row) error {
		hits++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("snapshot LookupEach(old) hit %d rows, want 1", hits)
	}
}

func BenchmarkSnapshotAcquire(b *testing.B) {
	s := NewStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Snapshot().Release()
	}
}

// TestRepinReusesReleasedSnapshot: on a plain and a sharded store, Repin
// pins a released snapshot at the current epoch without allocating — a
// sharded snapshot's parts included — it reads what a fresh snapshot reads,
// holds back the sweep like one, and releases like one.
func TestRepinReusesReleasedSnapshot(t *testing.T) {
	for _, s := range []*Store{NewStore(), NewShardedStore(2)} {
		tbl, err := s.CreateTable("kv", []Column{
			{Name: "k", Type: sqldb.TypeInt, PrimaryKey: true},
			{Name: "v", Type: sqldb.TypeText},
		})
		if err != nil {
			t.Fatal(err)
		}
		id, err := tbl.Insert(Row{int64(1), "v0"})
		if err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		snap.Release()
		if _, err := tbl.Update(id, Row{int64(1), "v1"}); err != nil {
			t.Fatal(err)
		}
		s.Repin(snap)
		fresh := s.Snapshot()
		fresh.Release()
		if snap.Epoch() != fresh.Epoch() || s.ActiveSnapshots() != 1 {
			t.Fatalf("repinned epoch %d, fresh %d, %d snapshots active", snap.Epoch(), fresh.Epoch(), s.ActiveSnapshots())
		}
		if _, err := tbl.Update(id, Row{int64(1), "v2"}); err != nil {
			t.Fatal(err)
		}
		if r, ok := lookupOne(t, tbl, 1, snap); !ok || r[1] != "v1" {
			t.Fatalf("repinned snapshot reads %v, want v1", r)
		}
		if tbl.PendingGC() == 0 {
			t.Fatal("a repinned snapshot does not hold back the sweep")
		}
		snap.Release()
		if n := s.ActiveSnapshots(); n != 0 || tbl.PendingGC() != 0 {
			t.Fatalf("after release: %d snapshots active, %d pending garbage", n, tbl.PendingGC())
		}
		if n := testing.AllocsPerRun(100, func() { s.Repin(snap); snap.Release() }); n != 0 {
			t.Fatalf("Repin allocates %v times", n)
		}
	}
}
