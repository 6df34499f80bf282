package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/driver"
	"repro/internal/sqldb/engine"
)

// limit says when a client stops. With passes > 0 it runs exactly that
// many passes (fixed work: tests, paired comparisons); otherwise it stops
// at the first pass boundary at or after seconds. Stopping only at pass
// boundaries keeps every per-op count a mean over whole passes, so the
// counts of the single-client workloads do not depend on where the clock
// happened to cut the run.
type limit struct {
	seconds float64
	passes  int
}

func (l limit) done(passes int, elapsed time.Duration) bool {
	if l.passes > 0 {
		return passes >= l.passes
	}
	return elapsed.Seconds() >= l.seconds
}

// recorder is one client's log of the ops it ran. Host latency is the time
// between consecutive op completions, so a client's latencies sum to its
// wall time: whatever the client does between ops (shuffling the next
// pass, the pass-end flush) is charged to the next op, not dropped.
type recorder struct {
	hostNS    []int64
	virtNS    []int64
	passEndNS []int64 // host time since the run's start at each pass end
	attempted int
	failed    int
	firstErr  error
	start     time.Time
	last      time.Time
	// done counts the run's completed ops across all its clients.
	done *atomic.Int64
}

func (r *recorder) reset(now time.Time, done *atomic.Int64) {
	*r = recorder{hostNS: r.hostNS[:0], virtNS: r.virtNS[:0], passEndNS: r.passEndNS[:0], start: now, last: now, done: done}
}

// op logs one completed op. err is nil when the op succeeded and its
// output matched the reference.
func (r *recorder) op(virt time.Duration, err error) {
	now := hostNow()
	r.hostNS = append(r.hostNS, int64(now.Sub(r.last)))
	r.virtNS = append(r.virtNS, int64(virt))
	r.last = now
	r.attempted++
	r.done.Add(1)
	if err != nil {
		r.fail(err)
	}
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *recorder) passEnd() {
	r.passEndNS = append(r.passEndNS, int64(hostNow().Sub(r.start)))
}

// client is one closed-loop client: it issues its next op only after the
// previous one completed.
type client interface {
	// pass runs one pass of the workload's fixed op list.
	pass()
	rec() *recorder
	spans() []span
	// virtNow reads the client's virtual clock.
	virtNow() time.Duration
}

// instance is one freshly set-up deployment of a workload with its
// clients, warmed up and ready to be measured.
type instance interface {
	clients() []client
	servers() []*driver.Server
	dbs() []*engine.DB
	// corpus is the batches a traced set-up recorded (nil untraced).
	corpus() *corpus
	// sessionCounters reports the session-scoped counters accumulated
	// since resetCounters.
	sessionCounters() counters
	resetCounters()
	// verify is the end-of-run output check that goes beyond the per-op
	// checks the clients make.
	verify() error
	close()
}

// measured is what one run of passes yields.
type measured struct {
	wall      time.Duration
	passes    int // passes per client (the smallest, when clients differ)
	ops       int
	failed    int
	firstErr  error
	hostNS    []int64       // per-op host latency, every client
	virtNS    []int64       // per-op virtual latency, every client
	virtSpan  time.Duration // simulated time the run took: the largest client clock advance
	ctr       counters
	passEndNS [][]int64 // per client
	mem       memCheckpoint
}

// memCheckpoint is the memory reading taken after fixed work: when client
// 0 completed pass memPass (or at the end of a shorter run).
type memCheckpoint struct {
	liveHeap   uint64 // HeapAlloc after a forced collection
	allocBytes uint64 // TotalAlloc since the run's start
	ops        int64  // ops completed by every client since the run's start
}

// memPass is the pass after which memory is read. Long-lived stores and
// servers retain state per op (result caches, version chains, occupancy
// sets, inserted rows), and growing tables cost more bytes per op, so
// figures taken over a whole fixed-time run grow with the run's speed;
// reading them after fixed work makes a faster commit's figures comparable
// with its parent's.
const memPass = 5

func readMem(allocBase uint64, done *atomic.Int64) memCheckpoint {
	ops := done.Load()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return memCheckpoint{liveHeap: mem.HeapAlloc, allocBytes: mem.TotalAlloc - allocBase, ops: ops}
}

// measure runs every client of inst until lim, each on its own goroutine
// with no barrier between them, and returns what they did together with
// the counter deltas over exactly that window.
func measure(inst instance, lim limit) measured {
	clients := inst.clients()
	before := globalCounters(inst.servers())
	inst.resetCounters()
	start := hostNow()
	var done atomic.Int64
	allocBase := uint64(before.v[cTotalAllocBytes])
	virtStart := make([]time.Duration, len(clients))
	for i, c := range clients {
		c.rec().reset(start, &done)
		virtStart[i] = c.virtNow()
	}
	var m measured
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 1; ; n++ {
				c.pass()
				c.rec().passEnd()
				if i == 0 && n == memPass {
					m.mem = readMem(allocBase, &done)
				}
				if lim.done(n, hostNow().Sub(start)) {
					return
				}
			}
		}()
	}
	wg.Wait()
	m.wall = hostNow().Sub(start)
	if m.mem.ops == 0 {
		m.mem = readMem(allocBase, &done)
	}
	m.ctr = globalCounters(inst.servers())
	m.ctr.sub(before)
	m.ctr.add(inst.sessionCounters())
	for i, c := range clients {
		r := c.rec()
		m.ops += r.attempted
		m.failed += r.failed
		if m.firstErr == nil {
			m.firstErr = r.firstErr
		}
		m.hostNS = append(m.hostNS, r.hostNS...)
		m.virtNS = append(m.virtNS, r.virtNS...)
		m.passEndNS = append(m.passEndNS, r.passEndNS)
		m.virtSpan = max(m.virtSpan, c.virtNow()-virtStart[i])
		if i == 0 || len(r.passEndNS) < m.passes {
			m.passes = len(r.passEndNS)
		}
	}
	return m
}

// failure formats a run's first failed op for the error stream.
func (m measured) failure() error {
	if m.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d ops failed; first: %v", m.failed, m.ops, m.firstErr)
}
