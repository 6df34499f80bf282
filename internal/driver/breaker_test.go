package driver

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
)

// TestFaultOutageAndRecovery: inside a scheduled outage window every batch
// fails transiently with the virtual failure time carried in the returned
// completion; past the window the same batch succeeds — the recovery
// contract the dispatch retry loop is built on.
func TestFaultOutageAndRecovery(t *testing.T) {
	_, srv, conn := rig(t, time.Millisecond)
	srv.SetFaults(faults.NewPlane(faults.Config{
		Outages: []faults.Outage{{Shard: 0, From: 0, To: 5 * time.Millisecond}},
	}))
	stmts := []Stmt{{SQL: "SELECT v FROM kv WHERE k = 2"}}
	_, failAt, err := conn.Exec(obs.Ctx{}, 2*time.Millisecond, stmts)
	if !errors.Is(err, faults.ErrTransient) || !faults.Injected(err) {
		t.Fatalf("inside outage: err = %v", err)
	}
	if failAt <= 2*time.Millisecond {
		t.Fatalf("failure observed at %v, want after arrival (wasted trip)", failAt)
	}
	if got := conn.Link().Stats().RoundTrips; got != 1 {
		t.Fatalf("failed attempt charged %d trips, want 1", got)
	}
	results, _, err := conn.Exec(obs.Ctx{}, 6*time.Millisecond, stmts)
	if err != nil || results[0].Rows[0][0] != "two" {
		t.Fatalf("after outage: results=%v err=%v", results, err)
	}
	srv.SetFaults(nil)
	if _, _, err := conn.Exec(obs.Ctx{}, 3*time.Millisecond, stmts); err != nil {
		t.Fatalf("plane uninstalled: %v", err)
	}
}

// TestFaultLinkTimeoutHook: installing the plane on the server points the
// connection's link hook at it, and a timed-out trip lands in the link's
// Timeouts counter with the failure observed after the wasted delay.
func TestFaultLinkTimeoutHook(t *testing.T) {
	_, srv, conn := rig(t, time.Millisecond)
	srv.SetFaults(faults.NewPlane(faults.Config{
		LinkTimeoutRate: 1,
		LinkTimeout:     3 * time.Millisecond,
	}))
	_, failAt, err := conn.Exec(obs.Ctx{}, time.Millisecond, []Stmt{{SQL: "SELECT * FROM kv"}})
	if !errors.Is(err, faults.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if failAt != 4*time.Millisecond {
		t.Fatalf("failAt = %v, want arrival + timeout = 4ms", failAt)
	}
	if s := conn.Link().Stats(); s.Timeouts != 1 {
		t.Fatalf("link timeouts = %d, want 1", s.Timeouts)
	}
}

// TestFaultPoisonPermanent: a poisoned argument fails the batch with a
// permanent, non-retriable, injected error.
func TestFaultPoisonPermanent(t *testing.T) {
	_, srv, conn := rig(t, time.Millisecond)
	srv.SetFaults(faults.NewPlane(faults.Config{PoisonArgs: []sqldb.Value{int64(2)}}))
	_, _, err := conn.Exec(obs.Ctx{}, 0, []Stmt{
		{SQL: "SELECT v FROM kv WHERE k = ?", Args: []sqldb.Value{int64(1)}},
		{SQL: "SELECT v FROM kv WHERE k = ?", Args: []sqldb.Value{int64(2)}},
	})
	if !errors.Is(err, faults.ErrPermanent) || faults.Retriable(err) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := conn.Exec(obs.Ctx{}, 0, []Stmt{
		{SQL: "SELECT v FROM kv WHERE k = ?", Args: []sqldb.Value{int64(1)}},
	}); err != nil {
		t.Fatalf("clean statement: %v", err)
	}
}

// TestBreakerStateMachine walks the full trip → fail-fast → half-open
// probe → close cycle on the virtual clock and checks the transition
// counters that the reproducibility assertions compare.
func TestBreakerStateMachine(t *testing.T) {
	_, srv, conn := rig(t, time.Millisecond)
	srv.SetFaults(faults.NewPlane(faults.Config{
		Outages: []faults.Outage{{Shard: 0, From: 0, To: 10 * time.Millisecond}},
		Breaker: faults.Breaker{Threshold: 2, Cooldown: 4 * time.Millisecond},
	}))
	stmts := []Stmt{{SQL: "SELECT v FROM kv WHERE k = 1"}}

	// Two consecutive outage failures trip the breaker...
	for i := 0; i < 2; i++ {
		at := time.Duration(i) * time.Millisecond
		if _, _, err := conn.Exec(obs.Ctx{}, at, stmts); !errors.Is(err, faults.ErrTransient) {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	st := srv.Stats()
	if st.BreakerTrips != 1 {
		t.Fatalf("trips = %d, want 1", st.BreakerTrips)
	}
	// ...so the next attempt inside the cooldown fails fast: locally, with
	// no round trip charged.
	trips := conn.Link().Stats().RoundTrips
	_, failAt, err := conn.Exec(obs.Ctx{}, 3*time.Millisecond, stmts)
	if !errors.Is(err, faults.ErrBreakerOpen) {
		t.Fatalf("inside cooldown: %v", err)
	}
	if failAt != 3*time.Millisecond {
		t.Fatalf("fast fail observed at %v, want arrival", failAt)
	}
	if got := conn.Link().Stats().RoundTrips; got != trips {
		t.Fatalf("fast fail charged a round trip (%d -> %d)", trips, got)
	}
	// Past the cooldown the breaker half-opens; the probe still lands in
	// the outage window, so it fails and re-opens for a fresh cooldown.
	if _, _, err := conn.Exec(obs.Ctx{}, 6*time.Millisecond, stmts); !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("failed probe: %v", err)
	}
	st = srv.Stats()
	if st.BreakerProbes != 1 || st.BreakerTrips != 2 {
		t.Fatalf("after failed probe: probes=%d trips=%d, want 1/2", st.BreakerProbes, st.BreakerTrips)
	}
	// A probe past the outage window succeeds and closes the breaker.
	if _, _, err := conn.Exec(obs.Ctx{}, 11*time.Millisecond, stmts); err != nil {
		t.Fatalf("closing probe: %v", err)
	}
	st = srv.Stats()
	if st.BreakerProbes != 2 || st.BreakerFastFails != 1 {
		t.Fatalf("final: %+v", st)
	}
	if _, _, err := conn.Exec(obs.Ctx{}, 12*time.Millisecond, stmts); err != nil {
		t.Fatalf("closed breaker: %v", err)
	}
	if st := srv.Stats(); st.BreakerTrips != 2 || st.BreakerFastFails != 1 || st.BreakerProbes != 2 {
		t.Fatalf("closed breaker: %+v", st)
	}
}

// TestBreakerRejectedScatterProbesNothing: a scatter touching one breaker
// past its cooldown and one still cooling is rejected, and the rejection
// counts one fast fail and no probe whichever shard is the cooling one.
func TestBreakerRejectedScatterProbesNothing(t *testing.T) {
	for cooling := 0; cooling < 2; cooling++ {
		db := engine.NewSharded(2)
		if _, err := db.NewSession().Exec("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"); err != nil {
			t.Fatal(err)
		}
		clock := netsim.NewVirtualClock()
		srv := NewServer(db, clock, DefaultCostModel())
		srv.SetFaults(faults.NewPlane(faults.Config{Breaker: faults.Breaker{Threshold: 1}}))
		srv.brk[1-cooling] = breaker{open: true, openUntil: 5 * time.Millisecond}
		srv.brk[cooling] = breaker{open: true, openUntil: 12 * time.Millisecond}
		conn := srv.Connect(netsim.NewLink(clock, time.Millisecond))
		_, _, err := conn.Exec(obs.Ctx{}, 10*time.Millisecond, []Stmt{{SQL: "SELECT * FROM kv"}})
		if !errors.Is(err, faults.ErrBreakerOpen) {
			t.Fatalf("cooling shard %d: err = %v", cooling, err)
		}
		if st := srv.Stats(); st.BreakerProbes != 0 || st.BreakerFastFails != 1 {
			t.Fatalf("cooling shard %d: probes=%d fastFails=%d, want 0/1", cooling, st.BreakerProbes, st.BreakerFastFails)
		}
	}
}

// TestFaultDropsCountShardFailures: a scheduled outage and an injected
// drop each add exactly one to FaultDrops; a poisoned batch and a link
// timeout fail before any shard is consulted and add nothing.
func TestFaultDropsCountShardFailures(t *testing.T) {
	_, srv, conn := rig(t, time.Millisecond)
	stmts := []Stmt{{SQL: "SELECT v FROM kv WHERE k = ?", Args: []sqldb.Value{int64(1)}}}
	for i, tc := range []struct {
		cfg  faults.Config
		want int64
	}{
		{faults.Config{Outages: []faults.Outage{{Shard: 0, From: 0, To: 5 * time.Millisecond}}}, 1},
		{faults.Config{ExecErrorRate: 1}, 2},
		{faults.Config{PoisonArgs: []sqldb.Value{int64(1)}}, 2},
		{faults.Config{LinkTimeoutRate: 1}, 2},
	} {
		srv.SetFaults(faults.NewPlane(tc.cfg))
		if _, _, err := conn.Exec(obs.Ctx{}, 2*time.Millisecond, stmts); !faults.Injected(err) {
			t.Fatalf("case %d: err = %v, want an injected fault", i, err)
		}
		if got := srv.Stats().FaultDrops; got != tc.want {
			t.Fatalf("case %d: FaultDrops = %d, want %d", i, got, tc.want)
		}
	}
}

// TestFaultSlowdownShiftsCompletion: a latency spike stretches completion
// deterministically without touching results.
func TestFaultSlowdownShiftsCompletion(t *testing.T) {
	_, srv, conn := rig(t, time.Millisecond)
	stmts := []Stmt{{SQL: "SELECT v FROM kv WHERE k = 3"}}
	// Both arrivals land on an idle lane (well past the rig's setup
	// statements), so their latencies differ by exactly the spike.
	_, base, err := conn.Exec(obs.Ctx{}, 20*time.Millisecond, stmts)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetFaults(faults.NewPlane(faults.Config{
		Slowdowns: []faults.Slowdown{{Shard: 0, From: 40 * time.Millisecond, To: 60 * time.Millisecond, Extra: 2 * time.Millisecond}},
	}))
	results, done, err := conn.Exec(obs.Ctx{}, 50*time.Millisecond, stmts)
	if err != nil || results[0].Rows[0][0] != "three" {
		t.Fatalf("results=%v err=%v", results, err)
	}
	if done-50*time.Millisecond != base-20*time.Millisecond+2*time.Millisecond {
		t.Fatalf("spiked latency = %v, want baseline %v + 2ms", done-50*time.Millisecond, base-20*time.Millisecond)
	}
}
