package bench

import (
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/orm"
	"repro/internal/querystore"
)

// These tests are the dispatch pipeline's golden-equality harness: every
// page of both evaluation applications must render byte-identically under
// the synchronous and asynchronous dispatch strategies — the strategies may
// only change WHEN batches execute, never what any query observes. The
// throughput test pins the acceptance criterion: at 8 concurrent sessions
// the deferred strategy must beat the synchronous one in simulated pages
// per second.

func dispatchGoldenSuite(t *testing.T, id AppID) {
	t.Helper()
	rtt := 500 * time.Microsecond
	kinds := []dispatch.Kind{dispatch.KindAsync}
	// The K-queue occupancy model may only change WHEN batches run on the
	// virtual timeline, never what they observe: every strategy renders
	// what sync renders, on a server of 1 and of 4 DB workers.
	for _, workers := range []int{1, 4} {
		env, err := NewEnv(id, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		env.Srv.SetWorkers(workers)
		for _, page := range env.Pages() {
			want, _, err := env.LoadPageHTML(page, orm.ModeSloth, rtt, querystore.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range kinds {
				got, _, err := env.LoadPageHTML(page, orm.ModeSloth, rtt, querystore.Config{Dispatch: kind})
				if err != nil {
					t.Fatalf("%s %q under %s w%d: %v", id, page, kind, workers, err)
				}
				if got != want {
					t.Fatalf("%s %q: %s dispatch (workers %d) render differs\n--- sync ---\n%s\n--- %s ---\n%s",
						id, page, kind, workers, want, kind, got)
				}
			}
		}
	}
}

func TestDispatchGoldenItracker(t *testing.T) { dispatchGoldenSuite(t, Itracker) }
func TestDispatchGoldenOpenMRS(t *testing.T)  { dispatchGoldenSuite(t, OpenMRS) }

// TestDispatchGoldenWithMerge spot-checks that the merge stage composes
// with every dispatcher on the heaviest 1+N pages.
func TestDispatchGoldenWithMerge(t *testing.T) {
	cases := []struct {
		id   AppID
		page string
	}{
		{Itracker, "module-projects/list projects.jsp"},
		{OpenMRS, "encounters/encounterDisplay.jsp"},
		// Aggregate-family pages: per-row COUNT fan-outs that merge into
		// GROUP BY statements must demux identically under every strategy.
		{OpenMRS, "patientDashboardForm.jsp"},
		{OpenMRS, "admin/users/users.jsp"},
	}
	rtt := 500 * time.Microsecond
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			env, err := NewEnv(tc.id, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			env.Srv.SetWorkers(workers)
			want, _, err := env.LoadPageHTML(tc.page, orm.ModeSloth, rtt, querystore.Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []dispatch.Kind{dispatch.KindSync, dispatch.KindAsync} {
				cfg := MergeConfig()
				cfg.Dispatch = kind
				got, _, err := env.LoadPageHTML(tc.page, orm.ModeSloth, rtt, cfg)
				if err != nil {
					t.Fatalf("%s %q merge+%s w%d: %v", tc.id, tc.page, kind, workers, err)
				}
				if got != want {
					t.Fatalf("%s %q: merge+%s (workers %d) render differs", tc.id, tc.page, kind, workers)
				}
			}
		}
	}
}

// TestConcurrentThroughputGains is the Fig. 7-style acceptance check at 8
// concurrent sessions. The deferred strategy's mechanism — async
// overlapping round trips with render work — cuts network-stall time, so
// its win is asserted at the paper's cross-data-center RTT (10 ms), where
// stalls dominate and the margin is far above occupancy-placement noise. (At
// data-center RTT the suite is app-time-bound and the strategies
// legitimately tie within a percent: the backfill occupancy model charges
// no phantom queue wait for sync to lose.) Pipelining the per-page visit
// write must additionally gain measured pages per second over forcing it
// — the write sync points are what serialize a session's own batches.
func TestConcurrentThroughputGains(t *testing.T) {
	// Read-only replay: the deferred strategy's structural advantage
	// (overlap) where round-trip stalls bite.
	kinds := []dispatch.Kind{dispatch.KindSync, dispatch.KindAsync}
	rep, err := ConcurrentThroughput(Itracker, ThroughputOptions{
		Sessions: []int{8},
		Kinds:    kinds,
		RTT:      10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	syncRow, ok := rep.Row(dispatch.KindSync, false, 8, 1)
	if !ok {
		t.Fatal("missing sync row")
	}
	asyncRow, _ := rep.Row(dispatch.KindAsync, false, 8, 1)

	if asyncRow.Rate <= syncRow.Rate {
		t.Errorf("async rate %.1f <= sync rate %.1f", asyncRow.Rate, syncRow.Rate)
	}
	if asyncRow.Overlap <= 0 {
		t.Error("async overlapped no execution time")
	}
	t.Log("\n" + rep.Format())

	// Write workload: the write-pipelining acceptance criterion, with a
	// visit-log write per page load. At 1 session the async cell is fully
	// deterministic (batches run in order at Submit, no cross-session
	// occupancy races), so the pipelined-writes gain must show exactly; at
	// 8 sessions the
	// occupancy interleaving is scheduler-sensitive, so the cells assert
	// conservation (same writes, same statements) and no collapse, while
	// the report prints the measured gain (typically ~1.1x at one DB
	// worker, where every forced write is a serializing sync point).
	wrep, err := ConcurrentThroughput(Itracker, ThroughputOptions{
		Sessions: []int{1, 8},
		Kinds:    []dispatch.Kind{dispatch.KindAsync},
		RTT:      500 * time.Microsecond,
		Visits:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	get := func(pw bool, sessions int) ConcurrencyRow {
		t.Helper()
		row, ok := wrep.Row(dispatch.KindAsync, pw, sessions, 1)
		if !ok {
			t.Fatalf("missing async row pw=%v x%d", pw, sessions)
		}
		return row
	}
	forced1, pipelined1 := get(false, 1), get(true, 1)
	if pipelined1.Rate <= forced1.Rate {
		t.Errorf("write pipelining gained nothing: async+pw %.1f <= async %.1f p/s",
			pipelined1.Rate, forced1.Rate)
	}
	forced8, pipelined8 := get(false, 8), get(true, 8)
	if pipelined8.Writes != forced8.Writes || pipelined8.Writes == 0 {
		t.Errorf("write counts differ: pw %d, forced %d", pipelined8.Writes, forced8.Writes)
	}
	// Pipelining must not lose writes: both cells execute the same number
	// of statements at the server.
	if pipelined8.DBStmts != forced8.DBStmts {
		t.Errorf("pipelined writes changed executed statements: %d vs %d",
			pipelined8.DBStmts, forced8.DBStmts)
	}
	if pipelined8.Rate < 0.9*forced8.Rate {
		t.Errorf("pipelined writes cratered throughput at 8 sessions: %.1f vs %.1f p/s",
			pipelined8.Rate, forced8.Rate)
	}
	t.Log("\n" + wrep.Format())
}

// TestConcurrentReplaySingleSessionParity: with one session and the sync
// strategy, the concurrent harness must agree with the per-page loader's
// totals — same statements at the server, and no queueing.
func TestConcurrentReplaySingleSessionParity(t *testing.T) {
	row, err := replayConcurrent(Itracker, 1, dispatch.KindSync, false, 1, 1,
		ThroughputOptions{RTT: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if row.QueueWait != 0 {
		t.Errorf("single sync session queued %v", row.QueueWait)
	}
	if row.Overlap != 0 {
		t.Errorf("sync dispatch overlapped %v", row.Overlap)
	}

	env, err := NewEnv(Itracker, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var queries int64
	for _, page := range env.Pages() {
		_, m, err := env.LoadPageHTML(page, orm.ModeSloth, 500*time.Microsecond, querystore.Config{})
		if err != nil {
			t.Fatal(err)
		}
		queries += m.Queries
	}
	if row.DBStmts != queries {
		t.Errorf("concurrent harness executed %d statements, per-page loader %d", row.DBStmts, queries)
	}
}
