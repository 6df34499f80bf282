package bench

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/orm"
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

// aboveKnee runs 12 sessions, more than the web host's cores, over a few
// OpenMRS pages in each mode, so app compute queues for the web-CPU lanes,
// beside one session alone.
func aboveKnee(t *testing.T) []ConcurrencyRow {
	t.Helper()
	env, err := NewEnv(OpenMRS, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	opts := ThroughputOptions{RTT: 500 * time.Microsecond, Pages: env.Pages()[:6]}
	var rows []ConcurrencyRow
	for _, mode := range []orm.Mode{orm.ModeOriginal, orm.ModeSloth} {
		for _, n := range []int{1, 12} {
			row, err := replayConcurrent(OpenMRS, mode, n, dispatch.KindSync, false, 12, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// TestThroughputDeterminism: every cell, multi-session ones included, is
// reproducible in every measured dimension whatever the host parallelism.
// The sessions' connections share one driver.Order, so their batches reach
// the DB worker queues, and their app compute the web-CPU lanes, in
// virtual-arrival order, not in the order the host scheduler happens to run
// their goroutines.
func TestThroughputDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	first, firstKnee := throughputCells(t), aboveKnee(t)
	runtime.GOMAXPROCS(8)
	again, againKnee := throughputCells(t), aboveKnee(t)
	for i, a := range first.Rows {
		b := again.Rows[i]
		if a.Writes == 0 || a.DBStmts == 0 {
			t.Fatalf("degenerate row: %+v", a)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s x%d diverged between GOMAXPROCS 1 and 8:\nfirst %+v\nagain %+v", a.Strategy(), a.Sessions, a, b)
		}
	}
	for i := 0; i < len(firstKnee); i += 2 {
		// With 12 DB workers nothing queues at the database, so only the
		// web lanes can stretch 12 sessions' makespan past one session's.
		alone, contended := firstKnee[i], firstKnee[i+1]
		if contended.QueueWait != 0 || contended.Makespan <= alone.Makespan {
			t.Fatalf("x12 makespan %v (db queue wait %v), alone %v: the web lanes were never contended",
				contended.Makespan, contended.QueueWait, alone.Makespan)
		}
	}
	if !reflect.DeepEqual(firstKnee, againKnee) {
		t.Fatalf("cells above the knee diverged between GOMAXPROCS 1 and 8:\nfirst %+v\nagain %+v", firstKnee, againKnee)
	}
}
