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

// TestWorkerStatsSizedBySetWorkers: SetWorkers sizes the per-worker stat
// slices once, before traffic, and every batch's placement, busy time and
// snapshot wall time land in them — the per-worker columns sum to the
// server totals with nothing left over.
func TestWorkerStatsSizedBySetWorkers(t *testing.T) {
	_, srv, conn := rig(t, 0)
	srv.SetWorkers(2)
	if st := srv.Stats(); len(st.WorkerBatches) != 2 || len(st.WorkerBusy) != 2 || len(st.WorkerWall) != 2 {
		t.Fatalf("per-worker stats not sized by SetWorkers: %v / %v / %v", st.WorkerBatches, st.WorkerBusy, st.WorkerWall)
	}
	for i := 0; i < 4; i++ {
		mustExec(t, conn, "SELECT v FROM kv WHERE k = 1")
	}
	st := srv.Stats()
	var placed int64
	var busy, wall time.Duration
	for i := range st.WorkerBatches {
		placed += st.WorkerBatches[i]
		busy += st.WorkerBusy[i]
		wall += st.WorkerWall[i]
	}
	if placed != st.Batches || placed != 4 {
		t.Fatalf("placed %d batches across workers, server counted %d, want 4", placed, st.Batches)
	}
	if busy != st.DBTime {
		t.Fatalf("worker busy %v != DBTime %v", busy, st.DBTime)
	}
	if wall <= 0 || st.RetiredWall != 0 {
		t.Fatalf("wall time: workers %v, retired %v; want positive and zero", wall, st.RetiredWall)
	}
}
