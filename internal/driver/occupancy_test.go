package driver

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sqldb/engine"
)

// These tests pin the occupancy timeline against a naive model that knows
// nothing about sorting or binary search: a lane is a bag of busy
// intervals, and a slot is free when no interval overlaps it.

// naiveLane is the reference lane: unordered busy intervals, merged
// whenever two overlap or touch so the set always describes the lane's
// busy time as maximal stretches.
type naiveLane struct{ busy []busySpan }

func (l *naiveLane) free(from, dur time.Duration) time.Duration {
	for moved := true; moved; {
		moved = false
		for _, sp := range l.busy {
			if sp.from < from+dur && sp.to > from {
				from, moved = sp.to, true
			}
		}
	}
	return from
}

func (l *naiveLane) insert(from, dur time.Duration) {
	if dur <= 0 {
		return
	}
	add := busySpan{from, from + dur}
	for merged := true; merged; {
		merged = false
		for i, sp := range l.busy {
			if sp.from <= add.to && sp.to >= add.from {
				if sp.from < add.from {
					add.from = sp.from
				}
				if sp.to > add.to {
					add.to = sp.to
				}
				l.busy = append(l.busy[:i], l.busy[i+1:]...)
				merged = true
				break
			}
		}
	}
	l.busy = append(l.busy, add)
}

// checkSpans asserts the lane's representation invariant: spans sorted by
// start, disjoint, and never touching (touching spans coalesce).
func checkSpans(t *testing.T, l *laneBusy) {
	t.Helper()
	for i, sp := range l.spans {
		if sp.to <= sp.from {
			t.Fatalf("span %d empty or inverted: %v", i, sp)
		}
		if i > 0 && l.spans[i-1].to >= sp.from {
			t.Fatalf("spans %d and %d overlap or touch: %v %v", i-1, i, l.spans[i-1], sp)
		}
	}
}

// randomBatch draws one (arrival, dur) pair. Times sit on a coarse grid so
// spans often touch exactly; arrivals wander both ways around a slowly
// advancing front, so many land before spans already placed; some
// durations are zero.
func randomBatch(rng *rand.Rand, step int) (arrival, dur time.Duration) {
	const tick = 10 * time.Microsecond
	front := time.Duration(step) * 3 * tick
	arrival = front + time.Duration(rng.Intn(80)-40)*tick
	if arrival < 0 {
		arrival = 0
	}
	if rng.Intn(8) != 0 {
		dur = time.Duration(1+rng.Intn(6)) * tick
	}
	return arrival, dur
}

func TestLaneBusyMatchesNaiveReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var lane laneBusy
		var ref naiveLane
		for step := 0; step < 2000; step++ {
			arrival, dur := randomBatch(rng, step)
			got, want := lane.free(arrival, dur), ref.free(arrival, dur)
			if got != want {
				t.Fatalf("seed %d step %d: free(%v, %v) = %v, reference %v", seed, step, arrival, dur, got, want)
			}
			if got < arrival {
				t.Fatalf("seed %d step %d: free(%v, %v) = %v moved left", seed, step, arrival, dur, got)
			}
			// Place most batches at their slot, a few on top of busy time
			// (insert must coalesce whatever it is handed).
			at := got
			if rng.Intn(10) == 0 {
				at = arrival
			}
			lane.insert(at, dur)
			ref.insert(at, dur)
			checkSpans(t, &lane)
			if len(lane.spans) != len(ref.busy) {
				t.Fatalf("seed %d step %d: %d spans, reference holds %d stretches", seed, step, len(lane.spans), len(ref.busy))
			}
		}
	}
}

// TestOccupyMatchesNaiveReference replays random batches with random shard
// masks through Server.occupy on a 4-shard, 2-worker server and through the
// same placement rule spelled over naive lanes: per touched shard the lane
// with the earliest slot (ties to the lowest index), then the least common
// start, found by iterating from the arrival.
func TestOccupyMatchesNaiveReference(t *testing.T) {
	const shards, workers = 4, 2
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		srv := NewServer(engine.NewSharded(shards), netsim.NewVirtualClock(), DefaultCostModel())
		srv.SetWorkers(workers)
		ref := make([]naiveLane, shards*workers)
		var wantWait time.Duration
		for step := 0; step < 1500; step++ {
			arrival, cost := randomBatch(rng, step)
			mask := uint64(rng.Intn(1 << shards)) // 0 = every shard
			touched := 0
			for sh := 0; sh < shards; sh++ {
				if mask == 0 || mask&(1<<uint(sh)) != 0 {
					touched++
				}
			}
			share := cost / time.Duration(touched)
			var wantLanes []int
			for sh := 0; sh < shards; sh++ {
				if mask != 0 && mask&(1<<uint(sh)) == 0 {
					continue
				}
				w := sh * workers
				for i := w + 1; i < (sh+1)*workers; i++ {
					if ref[i].free(arrival, share) < ref[w].free(arrival, share) {
						w = i
					}
				}
				wantLanes = append(wantLanes, w)
			}
			wantStart := arrival
			for moved := true; moved; {
				moved = false
				for _, w := range wantLanes {
					if f := ref[w].free(wantStart, share); f > wantStart {
						wantStart, moved = f, true
					}
				}
			}
			for _, w := range wantLanes {
				ref[w].insert(wantStart, share)
			}
			wantWait += wantStart - arrival

			start, gotShare, lanes := srv.occupy(arrival, cost, mask, nil)
			if start != wantStart || gotShare != share || fmt.Sprint(lanes) != fmt.Sprint(wantLanes) {
				t.Fatalf("seed %d step %d: occupy(%v, %v, %04b) = start %v share %v lanes %v, reference start %v share %v lanes %v",
					seed, step, arrival, cost, mask, start, gotShare, lanes, wantStart, share, wantLanes)
			}
		}
		if got := srv.Stats().QueueWait; got != wantWait {
			t.Fatalf("seed %d: QueueWait %v, reference %v", seed, got, wantWait)
		}
		for i := range srv.lanes {
			checkSpans(t, &srv.lanes[i])
		}
	}
}

// BenchmarkOccupy places one batch past the end of a lane already holding
// the given number of busy spans — what every batch of a long-lived
// single-session server does. ns/op must not depend on the span count.
func BenchmarkOccupy(b *testing.B) {
	for _, c := range []struct {
		name  string
		spans int
	}{{"spans=1e2", 100}, {"spans=1e4", 10000}, {"spans=1e5", 100000}} {
		b.Run(c.name, func(b *testing.B) {
			srv := NewServer(engine.New(), netsim.NewVirtualClock(), DefaultCostModel())
			const cost, gap = 50 * time.Microsecond, 100 * time.Microsecond
			var buf [8]int
			at := time.Duration(0)
			for i := 0; i < c.spans; i++ {
				srv.occupy(at, cost, 0, buf[:0])
				at += gap
			}
			lane := &srv.lanes[0]
			if n := len(lane.spans); n != c.spans {
				b.Fatalf("lane holds %d spans, want %d", n, c.spans)
			}
			// Room for the timed inserts, so slice growth is not what is timed.
			lane.spans = append(make([]busySpan, 0, c.spans+b.N), lane.spans...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if start, _, _ := srv.occupy(at, cost, 0, buf[:0]); start != at {
					b.Fatalf("idle lane queued a batch: start %v, arrival %v", start, at)
				}
				at += gap
			}
		})
	}
}
