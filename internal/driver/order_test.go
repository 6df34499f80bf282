package driver

import (
	"cmp"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sqldb/engine"
)

// TestOrderExecutesInArrivalOrder: scripted sessions with unequal app
// delays, started in reverse join order on the host, execute their batches
// in (virtual arrival, join index) order. Each batch bumps a counter at the
// server and reads it back, so the value it reads is its execution rank. One
// session fails mid-script; it still leaves, and the others finish.
func TestOrderExecutesInArrivalOrder(t *testing.T) {
	db := engine.New()
	seed := db.NewSession()
	for _, sql := range []string{
		"CREATE TABLE ctr (id INT PRIMARY KEY, n INT)",
		"INSERT INTO ctr (id, n) VALUES (1, 0)",
	} {
		if _, err := seed.Exec(sql); err != nil {
			t.Fatalf("seed %q: %v", sql, err)
		}
	}
	srv := NewServer(db, netsim.NewVirtualClock(), DefaultCostModel())
	bump := []Stmt{prep("UPDATE ctr SET n = n + 1 WHERE id = 1"), prep("SELECT n FROM ctr WHERE id = 1")}
	fail := []Stmt{prep("SELECT n FROM missing WHERE id = 1")}

	// delays[i][k] is session i's app time before its batch k. Sessions 0
	// and 1 share a script, so their arrivals tie and join order decides.
	delays := [][]time.Duration{
		{0, 300 * time.Microsecond, 50 * time.Microsecond, time.Millisecond, 0, 10 * time.Microsecond},
		{0, 300 * time.Microsecond, 50 * time.Microsecond, time.Millisecond, 0, 10 * time.Microsecond},
		{40 * time.Microsecond, 0, 0, 2 * time.Millisecond, 70 * time.Microsecond, 0},
		{0, 900 * time.Microsecond, 5 * time.Microsecond, 0, 0, 0},
	}
	const failer, failAt = 3, 3 // session 3's batch 3 names a missing table

	type event struct {
		arrival   time.Duration
		join, seq int
		rank      int64
	}
	var (
		mu     sync.Mutex
		events []event
	)
	var order Order
	conns := make([]*Conn, len(delays))
	for i := range conns {
		conns[i] = srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 100*time.Microsecond))
		order.Join(conns[i])
	}
	errs := make([]error, len(delays))
	var wg sync.WaitGroup
	for i := range delays {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, clock := conns[i], conns[i].Clock()
			defer c.Leave()
			// Later joiners reach their first batch first on the host.
			time.Sleep(time.Duration(len(delays)-i) * time.Millisecond)
			for k, d := range delays[i] {
				clock.Advance(d)
				arrival := clock.Now()
				if i == failer && k == failAt {
					if _, err := c.ExecBatch(fail); err != nil {
						errs[i] = err
						return
					}
					errs[i] = errors.New("the missing table did not fail")
					return
				}
				res, err := c.ExecBatch(bump)
				if err != nil {
					errs[i] = err
					return
				}
				mu.Lock()
				events = append(events, event{arrival, i, k, res[1].Rows[0][0].(int64)})
				mu.Unlock()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sessions still parked after 30s")
	}

	for i, err := range errs {
		if (err != nil) != (i == failer) {
			t.Fatalf("session %d: err %v", i, err)
		}
	}
	if want := len(delays)*len(delays[0]) - (len(delays[failer]) - failAt); len(events) != want {
		t.Fatalf("%d batches executed, want %d", len(events), want)
	}
	slices.SortFunc(events, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.arrival, b.arrival), cmp.Compare(a.join, b.join), cmp.Compare(a.seq, b.seq))
	})
	for pos, e := range events {
		if e.rank != int64(pos+1) {
			t.Fatalf("batch %d of session %d (arrival %v) executed %d-th, want %d-th in (arrival, join) order",
				e.seq, e.join, e.arrival, e.rank, pos+1)
		}
	}
}

// TestOrderPricesAppLanes: a joined connection's Compute runs on the
// earliest-free of WebLanes web-CPU lanes, lowest index on ties. Session i
// of the first WebLanes computes (i+1)·100µs from time 0 and never waits;
// one more session, computing 50µs from time 0 too, waits exactly until
// lane 0 frees at 100µs. Later joiners reach Compute first on the host, so
// only the order's park puts them in (arrival, join index) order. An
// unjoined connection's Compute is its clock's Advance, and allocates
// nothing.
func TestOrderPricesAppLanes(t *testing.T) {
	srv := NewServer(engine.New(), netsim.NewVirtualClock(), DefaultCostModel())
	const us = time.Microsecond
	work := make([]time.Duration, WebLanes+1)
	for i := range WebLanes {
		work[i] = time.Duration(i+1) * 100 * us
	}
	work[WebLanes] = 50 * us

	var order Order
	conns := make([]*Conn, len(work))
	for i := range conns {
		conns[i] = srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 100*us))
		order.Join(conns[i])
	}
	var wg sync.WaitGroup
	for i, d := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conns[i].Leave()
			time.Sleep(time.Duration(len(work)-i) * time.Millisecond)
			conns[i].Compute(d)
		}()
	}
	wg.Wait()

	for i := range WebLanes {
		if got := conns[i].Clock().Now(); got != work[i] {
			t.Errorf("session %d ends at %v, want %v: it waited for a lane with %d free", i, got, work[i], WebLanes)
		}
	}
	if got, want := conns[WebLanes].Clock().Now(), 100*us+50*us; got != want {
		t.Errorf("session %d ends at %v, want %v: lane 0 frees at 100µs", WebLanes, got, want)
	}
	want := [WebLanes]time.Duration{150 * us}
	for i := 1; i < WebLanes; i++ {
		want[i] = work[i]
	}
	if order.web != want {
		t.Errorf("lane horizons %v, want %v", order.web, want)
	}

	alone := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 100*us))
	ref := netsim.NewVirtualClock()
	for _, d := range []time.Duration{0, 70 * us, -5 * us, time.Millisecond} {
		alone.Compute(d)
		ref.Advance(d)
	}
	if alone.Clock().Now() != ref.Now() {
		t.Errorf("unjoined Compute reached %v, Advance %v", alone.Clock().Now(), ref.Now())
	}
	if allocs := testing.AllocsPerRun(100, func() { alone.Compute(us) }); allocs != 0 && !raceEnabled {
		t.Errorf("unjoined Compute allocates %.0f objects", allocs)
	}
}
