package driver

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
)

// These tests are the snapshot-isolation stress for `go test -race`:
// concurrent read batches execute on worker slots against MVCC snapshots
// while a writer pipelines multi-row statements through the serialized
// path. Each read batch must observe one consistent epoch — no torn
// multi-row updates, no phantom halves of multi-row inserts.

// TestSnapshotReadsNoTornWrites: a writer repeatedly updates two rows to a
// new common value in one UPDATE statement; reader batches SELECT both
// rows and must always see them equal.
func TestSnapshotReadsNoTornWrites(t *testing.T) {
	_, srv, setup := rig(t, 0)
	srv.SetWorkers(4)
	mustExec(t, setup, "CREATE TABLE pair (id INT PRIMARY KEY, val INT)")
	mustExec(t, setup, "INSERT INTO pair (id, val) VALUES (1, 0), (2, 0)")

	const readers, batches, writes = 4, 200, 200
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
		for i := 1; i <= writes; i++ {
			if _, err := conn.Query("UPDATE pair SET val = ?", int64(i)); err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
			for i := 0; i < batches; i++ {
				results, err := conn.ExecBatch([]Stmt{
					{SQL: "SELECT val FROM pair WHERE id = 1"},
					{SQL: "SELECT val FROM pair WHERE id = 2"},
				})
				if err != nil {
					errs <- err
					return
				}
				a := results[0].Rows[0][0]
				b := results[1].Rows[0][0]
				if a != b {
					errs <- fmt.Errorf("torn read: id 1 has val %v, id 2 has val %v", a, b)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if st := srv.Stats(); st.SnapBatches == 0 {
		t.Fatal("no batch took the snapshot path")
	}
}

// TestSnapshotReadsNoPhantomInserts: a writer inserts rows two at a time
// in single INSERT statements; reader batches run COUNT(*) twice and must
// see the same, even count both times.
func TestSnapshotReadsNoPhantomInserts(t *testing.T) {
	_, srv, setup := rig(t, 0)
	srv.SetWorkers(4)
	mustExec(t, setup, "CREATE TABLE ev (id INT PRIMARY KEY, x INT)")

	const readers, batches, writes = 4, 150, 150
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
		for i := 0; i < writes; i++ {
			sql := fmt.Sprintf("INSERT INTO ev (id, x) VALUES (%d, 0), (%d, 0)", 2*i+1, 2*i+2)
			if _, err := conn.Query(sql); err != nil {
				errs <- err
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
			for i := 0; i < batches; i++ {
				results, err := conn.ExecBatch([]Stmt{
					{SQL: "SELECT COUNT(*) FROM ev"},
					{SQL: "SELECT COUNT(*) FROM ev"},
				})
				if err != nil {
					errs <- err
					return
				}
				c1 := results[0].Rows[0][0].(int64)
				c2 := results[1].Rows[0][0].(int64)
				if c1 != c2 {
					errs <- fmt.Errorf("batch saw two epochs: counts %d and %d", c1, c2)
					return
				}
				if c1%2 != 0 {
					errs <- fmt.Errorf("phantom half-insert: count %d is odd", c1)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSetWorkersFoldsRetiredStats: resizing the pool mid-run folds the old
// per-worker attribution into the Retired buckets instead of dropping it.
func TestSetWorkersFoldsRetiredStats(t *testing.T) {
	_, srv, conn := rig(t, 0)
	srv.SetWorkers(2)
	for i := 0; i < 4; i++ {
		mustExec(t, conn, "SELECT v FROM kv WHERE k = 1")
	}
	before := srv.Stats()
	var placed int64
	var busy, wall time.Duration
	for _, n := range before.WorkerBatches {
		placed += n
	}
	for _, d := range before.WorkerBusy {
		busy += d
	}
	for _, d := range before.WorkerWall {
		wall += d
	}
	if placed != 4 || busy <= 0 {
		t.Fatalf("precondition: placed %d busy %v", placed, busy)
	}
	if wall <= 0 {
		t.Fatal("precondition: no wall time attributed to worker slots")
	}

	srv.SetWorkers(1)
	after := srv.Stats()
	if len(after.WorkerBatches) > 1 || len(after.WorkerBusy) > 1 {
		t.Fatalf("stale per-worker stats after shrink: %v / %v", after.WorkerBatches, after.WorkerBusy)
	}
	if after.RetiredBatches != placed {
		t.Fatalf("RetiredBatches = %d, want %d", after.RetiredBatches, placed)
	}
	if after.RetiredBusy != busy {
		t.Fatalf("RetiredBusy = %v, want %v", after.RetiredBusy, busy)
	}
	if after.RetiredWall != wall {
		t.Fatalf("RetiredWall = %v, want %v", after.RetiredWall, wall)
	}

	// Totals reconcile across the resize: retired + live covers every batch.
	mustExec(t, conn, "SELECT v FROM kv WHERE k = 2")
	final := srv.Stats()
	var live int64
	for _, n := range final.WorkerBatches {
		live += n
	}
	if got := live + final.RetiredBatches; got != final.Batches {
		t.Fatalf("batch attribution lost on resize: live %d + retired %d != %d", live, final.RetiredBatches, final.Batches)
	}
}
