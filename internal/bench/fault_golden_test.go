package bench

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/querystore"
	"repro/internal/sqldb/storage"
)

// chaosConfig is the golden suite's eventually-recovering fault schedule:
// transient drops and link timeouts at a rate the retry budget always
// clears, early outage and slowdown windows that exercise backoff and
// latency spikes, and a breaker that trips and recovers. No poison — the
// golden bar is that every page still renders.
func chaosConfig() faults.Config {
	// Drop rates are per touched shard, so a 4-shard scatter fails an
	// attempt at 1-(1-rate)^4 — rates are set so the 16-attempt budget
	// never exhausts anywhere in the 150-page matrix.
	return faults.Config{
		Seed:            0xC0FFEE,
		ExecErrorRate:   0.05,
		LinkTimeoutRate: 0.02,
		Outages: []faults.Outage{
			{Shard: 0, From: 1 * time.Millisecond, To: 4 * time.Millisecond},
			{Shard: 1, From: 2 * time.Millisecond, To: 5 * time.Millisecond},
		},
		Slowdowns: []faults.Slowdown{
			{Shard: 0, From: 6 * time.Millisecond, To: 10 * time.Millisecond, Extra: 300 * time.Microsecond},
		},
		Breaker: faults.Breaker{Threshold: 3},
	}
}

// chaosRetry is the recovery policy paired with chaosConfig: enough
// attempts to walk out of every outage window (and through a breaker
// cooldown) on the capped backoff schedule.
func chaosRetry() dispatch.RetryPolicy {
	return dispatch.RetryPolicy{MaxAttempts: 16}
}

// TestChaosGoldenAllPages is the fault-plane bar: under the injected
// chaos schedule, every page of both applications — at 1, 2, and 4 shards,
// under every dispatch strategy — renders HTML byte-identical to the
// clean, fault-free baseline. Faults shift WHEN batches complete, never
// WHAT they return: injection fires pre-execution and recovery replays
// pre-publication, so content is invariant.
func TestChaosGoldenAllPages(t *testing.T) {
	const rtt = 500 * time.Microsecond
	kinds := []dispatch.Kind{dispatch.KindSync, dispatch.KindAsync, dispatch.KindShared}
	for _, app := range []AppID{Itracker, OpenMRS} {
		base, err := NewEnv(app, 1)
		if err != nil {
			t.Fatal(err)
		}
		html := make(map[string]string)
		for _, page := range base.Pages() {
			h, _, err := base.LoadPageHTML(page, orm.ModeSloth, rtt, querystore.Config{})
			if err != nil {
				t.Fatal(err)
			}
			html[page] = h
		}
		for _, shards := range []int{1, 2, 4} {
			env, err := NewEnvSharded(app, 1, shards)
			if err != nil {
				t.Fatal(err)
			}
			env.SetFaults(chaosConfig())
			for _, kind := range kinds {
				for _, page := range env.Pages() {
					h, _, err := env.LoadPageHTML(page, orm.ModeSloth, rtt, querystore.Config{Dispatch: kind, Retry: chaosRetry()})
					if err != nil {
						t.Fatalf("%v shards=%d %v %q under chaos: %v", app, shards, kind, page, err)
					}
					if h != html[page] {
						t.Fatalf("%v shards=%d %v %q: HTML diverged from fault-free baseline", app, shards, kind, page)
					}
				}
			}
		}
	}
}

// TestChaosSameSeedReproducible: two full fault sweeps under the same
// seed agree bit-for-bit — retry counts, degradation and terminal-error
// counts, breaker trips, injected-fault tallies, latency percentiles, and
// the virtual makespan. This is the fault plane's reproducibility
// acceptance at the experiment level.
func TestChaosSameSeedReproducible(t *testing.T) {
	opts := FaultSweepOptions{
		Rates: []float64{0, 0.15},
		Seed:  42,
		RTT:   500 * time.Microsecond,
	}
	a, err := FaultSweep(Itracker, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := FaultSweep(Itracker, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed sweeps diverged:\nrun1 %+v\nrun2 %+v", a, b)
	}
	faulted, ok := a.Row(0.15)
	if !ok {
		t.Fatal("missing faulted row")
	}
	if faulted.Retries == 0 || faulted.Drops == 0 {
		t.Errorf("faulted sweep injected nothing: %+v", faulted)
	}
	// The last cell is the published one, so -debugaddr serves the
	// sweep's own counters.
	if snap, ok := Live(); !ok || snap.Server.FaultDrops != faulted.Drops || snap.LinkTimeouts != faulted.Timeouts {
		t.Errorf("live snapshot is not the faulted cell's: %+v", snap)
	}
	clean, _ := a.Row(0)
	if clean.Retries != 0 || clean.Failed != 0 {
		t.Errorf("clean row saw faults: %+v", clean)
	}
}

// TestChaosHammerBlackouts is the fault plane's race hammer: on a 4-shard
// server with shard blackout windows, injected drops, and the breaker
// armed, four async scatter-reading sessions race a pipelined single-shard
// writer — all retrying — under `go test -race`. Recovery must neither
// race nor lose a write: every insert lands exactly once.
func TestChaosHammerBlackouts(t *testing.T) {
	const rtt = 500 * time.Microsecond
	env, err := NewEnvSharded(Itracker, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	env.Srv.SetWorkers(2)
	env.SetFaults(faults.Config{
		Seed:            7,
		ExecErrorRate:   0.05,
		LinkTimeoutRate: 0.02,
		Outages: []faults.Outage{
			{Shard: 0, From: 1 * time.Millisecond, To: 3 * time.Millisecond},
			{Shard: 1, From: 2 * time.Millisecond, To: 4 * time.Millisecond},
			{Shard: 2, From: 3 * time.Millisecond, To: 5 * time.Millisecond},
			{Shard: 3, From: 4 * time.Millisecond, To: 6 * time.Millisecond},
		},
		Breaker: faults.Breaker{Threshold: 4, Cooldown: time.Millisecond},
	})
	retry := dispatch.RetryPolicy{MaxAttempts: 20}
	if _, err := env.Srv.DB().NewSession().Exec(visitSchema); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for id := int64(1); len(ids) < 128; id++ {
		if storage.ShardOf(id, 4) == 0 {
			ids = append(ids, id)
		}
	}
	pages := env.Pages()[:3]

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			clock := netsim.NewVirtualClock()
			conn := env.Srv.Connect(netsim.NewLink(clock, rtt))
			store := querystore.New(conn, querystore.Config{Dispatch: dispatch.KindAsync, Retry: retry})
			defer store.Close()
			sess := orm.NewSession(store, orm.ModeSloth)
			for round := 0; round < 4; round++ {
				for _, p := range pages {
					sess.Clear()
					if _, err := env.LoadInto(p, sess); err != nil {
						errc <- err
						return
					}
				}
			}
			if err := store.Flush(); err != nil {
				errc <- err
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		clock := netsim.NewVirtualClock()
		conn := env.Srv.Connect(netsim.NewLink(clock, rtt))
		store := querystore.New(conn, querystore.Config{Dispatch: dispatch.KindAsync, PipelineWrites: true, Retry: retry})
		defer store.Close()
		sess := orm.NewSession(store, orm.ModeSloth)
		for _, id := range ids {
			if err := visitMeta.Insert(sess, &visit{ID: id, Session: 0, Page: id}); err != nil {
				errc <- err
				return
			}
		}
		if err := store.Flush(); err != nil {
			errc <- err
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	rs, err := env.Srv.DB().NewSession().Exec("SELECT id FROM access_log")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != len(ids) {
		t.Fatalf("writer landed %d rows under chaos, want %d", len(rs.Rows), len(ids))
	}
	if trips := env.Srv.Stats().BreakerTrips; trips == 0 {
		t.Logf("note: breaker never tripped under this schedule")
	}
}

// TestQuantileDurNearestRank: the q-quantile of n sorted samples is the
// ⌈q·n⌉-th smallest — p50 of the 38- and 112-page suites is the 19th and
// 56th latency, not the one above.
func TestQuantileDurNearestRank(t *testing.T) {
	for _, c := range []struct {
		n       int
		q       float64
		wantRnk int
	}{
		{1, 0.5, 1}, {1, 0.99, 1},
		{2, 0.5, 1}, {2, 0.99, 2},
		{38, 0.5, 19}, {38, 0.99, 38},
		{112, 0.5, 56}, {112, 0.99, 111},
	} {
		sorted := make([]time.Duration, c.n)
		for i := range sorted {
			sorted[i] = time.Duration(i+1) * time.Millisecond
		}
		if got, want := quantileDur(sorted, c.q), time.Duration(c.wantRnk)*time.Millisecond; got != want {
			t.Errorf("n=%d q=%v: got %v, want rank %d (%v)", c.n, c.q, got, c.wantRnk, want)
		}
	}
	if got := quantileDur(nil, 0.5); got != 0 {
		t.Errorf("empty sample: got %v, want 0", got)
	}
}
