package bench

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dispatch"
)

// throughputCells runs sync, async and async+pw throughput cells at 1 and 4
// sessions over a small page subset, with the visit-log writes on.
func throughputCells(t *testing.T) ConcurrencyReport {
	t.Helper()
	env, err := NewEnv(Itracker, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ConcurrentThroughput(Itracker, ThroughputOptions{
		Sessions: []int{1, 4},
		Kinds:    []dispatch.Kind{dispatch.KindSync, dispatch.KindAsync},
		Workers:  []int{2},
		RTT:      500 * time.Microsecond,
		Visits:   true,
		Pages:    env.Pages()[:8],
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("%d rows, want sync, async, async+pw at 1 and 4 sessions", len(rep.Rows))
	}
	return rep
}

// TestThroughputDeterminism: a single-session cell is reproducible in every
// measured dimension, because one session's batches reach the server in
// one order on one virtual timeline. With 4 sessions the order in which
// their batches reach the DB worker queues follows the host scheduler, so
// queue waits, latency quantiles and makespan move between runs; what each
// session executes does not, so pages, writes and statements still agree.
func TestThroughputDeterminism(t *testing.T) {
	first, again := throughputCells(t), throughputCells(t)
	for i, a := range first.Rows {
		b := again.Rows[i]
		if a.Writes == 0 || a.DBStmts == 0 {
			t.Fatalf("degenerate row: %+v", a)
		}
		if a.Sessions == 1 {
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s x1 diverged between identical runs:\nfirst %+v\nagain %+v", a.Strategy(), a, b)
			}
			continue
		}
		if a.Pages != b.Pages || a.Writes != b.Writes || a.DBStmts != b.DBStmts {
			t.Fatalf("%s x%d pages/writes/stmts diverged: %d/%d/%d vs %d/%d/%d", a.Strategy(), a.Sessions,
				a.Pages, a.Writes, a.DBStmts, b.Pages, b.Writes, b.DBStmts)
		}
	}
}
