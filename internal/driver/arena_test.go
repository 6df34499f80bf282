package driver

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sqldb"
)

// These tests pin the lifetime of the result sets a connection returns:
// valid until the connection's Release, which recycles them for the next
// request; and, on a connection that never releases, allocated one by one
// exactly as they were before results had an arena.

// zeroCostRig is rig on a zero cost model and a zero-RTT link: a batch
// leaves no occupancy span behind, so what it allocates is its results.
func zeroCostRig(t *testing.T) *Server {
	t.Helper()
	_, srv, _ := rig(t, 0)
	srv.cost = CostModel{}
	return srv
}

// arenaBatch returns no row, one row and three rows, each the stored row
// itself (whole-row SELECTs project nothing).
var arenaBatch = []Stmt{
	prep("SELECT * FROM kv WHERE k = 9"),
	prep("SELECT * FROM kv WHERE k = 1"),
	prep("SELECT * FROM kv"),
}

func checkArenaBatch(t *testing.T, results []*sqldb.ResultSet) {
	t.Helper()
	if len(results) != 3 || results[0].Rows != nil || len(results[1].Rows) != 1 || results[1].Rows[0][1] != "one" ||
		len(results[2].Rows) != 3 || results[2].Rows[2][1] != "three" || len(results[2].Cols) != 2 {
		t.Fatalf("batch results: %v", results)
	}
}

// TestReleaseRecyclesResults: results taken from the arena's slabs read as
// cleared after Release, and the connection stays usable — its next batch
// draws the arena again and fills the same slots.
func TestReleaseRecyclesResults(t *testing.T) {
	srv := zeroCostRig(t)
	conn := srv.Connect(netsim.NewLink(srv.clock, 0))
	// The first request finds empty slabs; its Release sizes them.
	results, err := conn.ExecBatch(arenaBatch)
	if err != nil {
		t.Fatal(err)
	}
	checkArenaBatch(t, results)
	conn.Release()
	conn.Release() // a second Release, with no batch between, is a no-op
	if len(srv.arenas) != 1 {
		t.Fatalf("server holds %d arenas after one connection released twice, want 1", len(srv.arenas))
	}

	held, err := conn.ExecBatch(arenaBatch)
	if err != nil {
		t.Fatal(err)
	}
	checkArenaBatch(t, held)
	rs := append([]*sqldb.ResultSet(nil), held...)
	conn.Release()
	for i, r := range rs {
		if r.Rows != nil || r.Cols != nil || r.RowsScanned != 0 {
			t.Fatalf("result %d after Release reads %+v, want cleared", i, *r)
		}
	}
	again, err := conn.ExecBatch(arenaBatch)
	if err != nil {
		t.Fatal(err)
	}
	checkArenaBatch(t, again)
	if again[2] != rs[2] {
		t.Fatal("the request after Release did not reuse the released slots")
	}
}

// TestReleaseClearsProjectedRowsAndWrites: a projected row and a write's
// result come from the arena too, so once the request that fetched them
// is released, a projected row still held reads as NULLs and a write's
// result as cleared.
func TestReleaseClearsProjectedRowsAndWrites(t *testing.T) {
	srv := zeroCostRig(t)
	conn := srv.Connect(netsim.NewLink(srv.clock, 0))
	batch := []Stmt{
		prep("SELECT v FROM kv WHERE k = 1"),
		prep("UPDATE kv SET v = 'one' WHERE k = 1"),
	}
	for request := 0; request < 2; request++ { // the first sizes the slabs
		results, err := conn.ExecBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		row, write := results[0].Rows[0], results[1]
		if row[0] != "one" || write.RowsAffected != 1 {
			t.Fatalf("request %d: row %v, write %+v", request, row, *write)
		}
		conn.Release()
		if request == 1 && (row[0] != nil || write.RowsAffected != 0) {
			t.Fatalf("after Release: row %v, write %+v, want both cleared", row, *write)
		}
	}
}

// TestUnreleasedConnAllocatesEachResult: a connection that never releases
// runs 10 000 batches, each allocating exactly what a batch allocated
// before results had an arena — three 96-byte result sets (each with room
// for one row), the three-row result's row slice (three 24-byte headers in
// an 80-byte size class) and the 24-byte list of the three — from the
// second thousand batches to the last, and the live heap does not grow with
// them.
func TestUnreleasedConnAllocatesEachResult(t *testing.T) {
	if raceEnabled {
		t.Skip("byte counts are not fixed under the race detector")
	}
	srv := zeroCostRig(t)
	// Another connection's request sized an arena first, so this one draws
	// slabs and runs past them.
	other := srv.Connect(netsim.NewLink(srv.clock, 0))
	if _, err := other.ExecBatch(arenaBatch); err != nil {
		t.Fatal(err)
	}
	other.Release()
	other.Release()
	conn := srv.Connect(netsim.NewLink(srv.clock, 0))
	var ms runtime.MemStats
	perBatch := func(n int) uint64 {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < n; i++ {
			results, err := conn.ExecBatch(arenaBatch)
			if err != nil || len(results[2].Rows) != 3 {
				t.Fatalf("batch: %v, %v", results, err)
			}
		}
		runtime.ReadMemStats(&ms)
		return (ms.TotalAlloc - before) / uint64(n)
	}
	live := func() uint64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	perBatch(1000)
	heap := live()
	second := perBatch(1000)
	perBatch(7000)
	last := perBatch(1000)
	const want = 3*96 + 80 + 24
	if second != want || last != want {
		t.Fatalf("bytes per batch: %d over the second thousand, %d over the last, want %d", second, last, want)
	}
	if grown := int64(live()) - int64(heap); grown > 64<<10 {
		t.Fatalf("live heap grew %d bytes over 9 000 unreleased batches", grown)
	}
}

// TestConnsReleaseConcurrently: two connections of one server run request
// after request at once, each releasing at its end, so arenas pass between
// them through the server; each reads only its own results (run under
// -race).
func TestConnsReleaseConcurrently(t *testing.T) {
	srv := zeroCostRig(t)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				results, err := conn.ExecBatch(arenaBatch)
				if err != nil {
					t.Error(err)
					return
				}
				if len(results[2].Rows) != 3 || results[1].Rows[0][1] != "one" {
					t.Errorf("request %d reads %v", i, results)
					return
				}
				conn.Release()
			}
		}()
	}
	wg.Wait()
	if n := len(srv.arenas); n < 1 || n > 2 {
		t.Fatalf("server holds %d arenas after two connections, want 1 or 2", n)
	}
}
