package bench

import (
	"reflect"
	"runtime"
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

// TestThroughputDeterminism: every cell, multi-session ones included, is
// reproducible in every measured dimension whatever the host parallelism.
// The sessions' connections share one driver.Order, so their batches reach
// the DB worker queues in virtual-arrival order, not in the order the host
// scheduler happens to run their goroutines.
func TestThroughputDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	first := throughputCells(t)
	runtime.GOMAXPROCS(8)
	again := throughputCells(t)
	for i, a := range first.Rows {
		b := again.Rows[i]
		if a.Writes == 0 || a.DBStmts == 0 {
			t.Fatalf("degenerate row: %+v", a)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s x%d diverged between GOMAXPROCS 1 and 8:\nfirst %+v\nagain %+v", a.Strategy(), a.Sessions, a, b)
		}
	}
}
