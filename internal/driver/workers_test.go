package driver

import (
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/obs"
)

// These tests pin the K-queue occupancy model: batches place on the DB
// worker that frees up first, QueueWait attributes only genuine capacity
// waits, and one worker reproduces the original single-horizon accounting
// exactly.

// occupyProbe issues a batch at a pinned virtual arrival and reports its
// queueing delay (completion minus the unqueued completion).
func occupyProbe(t *testing.T, conn *Conn, arrival time.Duration) time.Duration {
	t.Helper()
	stmts := []Stmt{{SQL: "SELECT v FROM kv WHERE k = 1"}}
	_, done, err := conn.Exec(obs.Ctx{}, arrival, stmts)
	if err != nil {
		t.Fatal(err)
	}
	return done - arrival
}

// TestWorkersParallelizeOccupancy: two batches arriving together queue
// behind each other on one worker but run side by side on two.
func TestWorkersParallelizeOccupancy(t *testing.T) {
	_, srv, conn := rig(t, 0)
	srv.SetWorkers(1)
	first := occupyProbe(t, conn, 0)
	second := occupyProbe(t, conn, 0)
	if second <= first {
		t.Fatalf("single worker did not queue: first %v, second %v", first, second)
	}
	if srv.Stats().QueueWait <= 0 {
		t.Fatal("single worker recorded no queue wait")
	}

	srv.SetWorkers(2)
	srv.ResetStats()
	a := occupyProbe(t, conn, time.Second)
	b := occupyProbe(t, conn, time.Second)
	if a != b {
		t.Fatalf("two workers still serialized: %v vs %v", a, b)
	}
	if qw := srv.Stats().QueueWait; qw != 0 {
		t.Fatalf("two idle workers charged %v queue wait", qw)
	}
	st := srv.Stats()
	if len(st.WorkerBatches) != 2 || st.WorkerBatches[0] != 1 || st.WorkerBatches[1] != 1 {
		t.Fatalf("placement not attributed per worker: %v", st.WorkerBatches)
	}
	if st.WorkerBusy[0] <= 0 || st.WorkerBusy[1] <= 0 {
		t.Fatalf("worker busy time missing: %v", st.WorkerBusy)
	}

	// Shrinking the pool drops the old attribution: a 1-worker server must
	// not keep reporting load on a worker that no longer exists.
	srv.SetWorkers(1)
	if st := srv.Stats(); len(st.WorkerBatches) > 1 || len(st.WorkerBusy) > 1 {
		t.Fatalf("stale per-worker stats after shrink: %v / %v", st.WorkerBatches, st.WorkerBusy)
	}
}

// TestWorkersPlacementBackfillsIdleGaps: a batch lands on the lane that
// can start it earliest (ties break to the lowest index), and a lane that
// is busy far in the future is still idle NOW — sessions run concurrently
// in host time, so a batch whose virtual arrival precedes an already
// placed reservation backfills the idle gap instead of queueing behind it.
func TestWorkersPlacementBackfillsIdleGaps(t *testing.T) {
	_, srv, conn := rig(t, 0)
	srv.SetWorkers(2)
	// Reserve worker 0 far in the future; the probe's return is the batch
	// cost (rtt 0, no wait), the unqueued baseline for the rest.
	cost := occupyProbe(t, conn, 10*time.Second)
	if cost <= 0 {
		t.Fatal("probe cost zero")
	}
	// An arrival at 0 backfills worker 0's idle gap before that
	// reservation — no wait on top of the cost.
	if d := occupyProbe(t, conn, 0); d != cost {
		t.Fatalf("backfill before a future reservation paid %v, want bare cost %v", d, cost)
	}
	// The next arrival at 0 finds worker 0 busy at 0 and runs on worker 1.
	if d := occupyProbe(t, conn, 0); d != cost {
		t.Fatalf("second idle worker paid %v, want bare cost %v", d, cost)
	}
	st := srv.Stats()
	if st.WorkerBatches[0] != 2 || st.WorkerBatches[1] != 1 {
		t.Fatalf("placement = %v, want [2 1]", st.WorkerBatches)
	}
	if qw := st.QueueWait; qw != 0 {
		t.Fatalf("idle-gap placements charged %v queue wait", qw)
	}
	// A fourth arrival at 0 has no idle lane left at 0: it queues for the
	// first gap — a genuine capacity conflict, the only thing QueueWait
	// should ever measure.
	if d := occupyProbe(t, conn, 0); d <= cost {
		t.Fatal("saturated lanes charged no wait")
	}
	if qw := srv.Stats().QueueWait; qw <= 0 {
		t.Fatal("QueueWait did not record the conflict")
	}
}

// TestSetWorkersOneMatchesSerialAccounting: the K-queue model with K=1 is
// the original busy-horizon model — a serial batch sequence pays zero
// queue wait on its own timeline.
func TestSetWorkersOneMatchesSerialAccounting(t *testing.T) {
	clock, srv, conn := rig(t, time.Millisecond)
	srv.SetWorkers(1)
	for i := 0; i < 5; i++ {
		if _, err := conn.ExecBatch([]Stmt{{SQL: "SELECT v FROM kv WHERE k = 2"}}); err != nil {
			t.Fatal(err)
		}
	}
	if qw := srv.Stats().QueueWait; qw != 0 {
		t.Fatalf("serial single-session run queued %v", qw)
	}
	if clock.Now() <= 5*time.Millisecond {
		t.Fatalf("clock advanced only %v over 5 round trips", clock.Now())
	}
}

// TestWorkersConcurrentRace is the K-worker stress for `go test -race`:
// eight connections hammer a four-worker server concurrently; counters
// must reconcile afterwards.
func TestWorkersConcurrentRace(t *testing.T) {
	_, srv, setup := rig(t, 0)
	_ = setup
	srv.SetWorkers(4)

	const sessions, batches = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 100*time.Microsecond))
			for j := 0; j < batches; j++ {
				if _, err := conn.ExecBatch([]Stmt{
					{SQL: "SELECT v FROM kv WHERE k = 1"},
					{SQL: "SELECT v FROM kv WHERE k = 2"},
				}); err != nil {
					errs <- err
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

	st := srv.Stats()
	if st.Batches != sessions*batches {
		t.Fatalf("batches = %d, want %d", st.Batches, sessions*batches)
	}
	if st.Queries != 2*sessions*batches {
		t.Fatalf("queries = %d, want %d", st.Queries, 2*sessions*batches)
	}
	var placed int64
	var busy time.Duration
	for _, n := range st.WorkerBatches {
		placed += n
	}
	for _, d := range st.WorkerBusy {
		busy += d
	}
	if placed != st.Batches {
		t.Fatalf("per-worker placements sum to %d, batches %d", placed, st.Batches)
	}
	if busy != st.DBTime {
		t.Fatalf("per-worker busy sums to %v, DBTime %v", busy, st.DBTime)
	}
}
