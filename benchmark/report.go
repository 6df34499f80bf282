package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// rounds is how many fresh deployments a --trace 0 run sets up and
// measures in turn. Measured on this box (8 runs each, same time budget):
// medians over 4 rounds repeat better than one long run, and better than
// medians over 6 shorter ones.
const rounds = 4

// traceCfg switches a set-up to the traced pipeline.
type traceCfg struct {
	origin time.Time // zero of every span's clock
}

// report collects metric values by name.
type report map[string]metricValue

func (r report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r[name] = metricValue{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the catalog")
}

// timedSetup sets a deployment up and reports how long that took: seeding,
// the reference pass, the warm-up passes and a final collection, so the
// measured run starts from a settled heap.
func timedSetup(cfg config, tc *traceCfg) (instance, float64, error) {
	start := hostNow()
	inst, err := setup(cfg, tc)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	return inst, hostNow().Sub(start).Seconds(), nil
}

func us(ns int64) float64 { return float64(ns) / 1e3 }
func ms(ns int64) float64 { return float64(ns) / 1e6 }

// runEndToEnd is --trace 0: tracing off, every end-to-end metric. The
// time budget is split into cfg.rounds rounds; each sets up a fresh
// deployment (one setup_s sample) and measures it for its share of the
// budget, and every metric reported is the median over the rounds. A host
// stall that lands in one round cannot move a median, and the servers are
// long-lived for a whole round, not for one page.
func runEndToEnd(cfg config) (result, error) {
	seeds := rand.New(rand.NewSource(cfg.seed))
	lim := cfg.lim
	lim.seconds /= float64(cfg.rounds)
	vals := make(map[string][]float64)
	res := result{Correct: true}
	for r := 0; r < cfg.rounds; r++ {
		// The deployment of the round before is garbage by now; it must not
		// weigh on this set-up's collector.
		runtime.GC()
		rc := cfg
		rc.seed = seeds.Int63()
		inst, setupS, err := timedSetup(rc, nil)
		if err != nil {
			return result{}, err
		}
		m := measure(inst, lim)
		verr := inst.verify()
		inst.close()
		ops := float64(m.ops)
		sorted := sortedCopy(m.hostNS)
		for name, v := range map[string]float64{
			"setup_s":                 setupS,
			"host_ops_per_s":          ops / m.wall.Seconds(),
			"host_op_p50_us":          us(percentile(sorted, 0.50)),
			"host_alloc_kb_per_op":    float64(m.mem.allocBytes) / 1024 / float64(m.mem.ops),
			"host_live_heap_mb":       float64(m.mem.liveHeap) / (1 << 20),
			"virt_round_trips_per_op": m.ctr.f(cRoundTrips) / ops,
			"virt_db_stmts_per_op":    m.ctr.f(cDBStmts) / ops,
		} {
			vals[name] = append(vals[name], v)
		}
		res.Attempted += m.ops
		res.Failed += m.failed
		res.Correct = res.Correct && m.failed == 0 && verr == nil
		res.addFailures(m, verr)
	}
	rep := report{}
	for name, xs := range vals {
		rep.set(endToEnd, name, medianFloat(xs))
	}
	res.Metrics = rep
	return res, nil
}

// addFailures keeps what made a run incorrect, for the error stream.
func (r *result) addFailures(m measured, verr error) {
	if err := m.failure(); err != nil {
		r.failures = append(r.failures, err)
	}
	if verr != nil {
		r.failures = append(r.failures, fmt.Errorf("output check: %w", verr))
	}
}

// passGrowth is the median of a client's last three pass times over the
// median of its first three: how much slower a pass got while the servers
// aged. Runs shorter than six passes report 0.
func passGrowth(ends []int64) float64 {
	if len(ends) < 6 {
		return 0
	}
	times := make([]float64, len(ends))
	for i, e := range ends {
		times[i] = float64(e)
		if i > 0 {
			times[i] -= float64(ends[i-1])
		}
	}
	return medianFloat(times[len(times)-3:]) / medianFloat(times[:3])
}

// wallAt is how long the run took to complete passes passes on every
// client.
func wallAt(m measured, passes int) time.Duration {
	var w int64
	for _, ends := range m.passEndNS {
		w = max(w, ends[passes-1])
	}
	return time.Duration(w)
}

// tracedPhase is everything the traced deployment yields; the deployment
// itself is dropped before the untraced comparison runs.
type tracedPhase struct {
	m             measured
	verr          error
	agg           [nSpanNames]spanTotals
	before, after layerTimes
	storage       storageTimes
	registerNS    float64
	parseUS       float64
	compileUS     float64
	thunkNS       float64
	heapSysMB     float64
	planEntries   int
	rowsTotal     int
	speedupP50    float64
	directWall    time.Duration // oltp_sloth only: the Direct twin's replay
}

// runTracedPhase sets up a traced deployment and runs lim on it, bracketed
// by layer probes.
func runTracedPhase(cfg config, lim limit) (tracedPhase, error) {
	var t tracedPhase
	tc := &traceCfg{origin: hostNow()}
	inst, _, err := timedSetup(cfg, tc)
	if err != nil {
		return t, err
	}
	defer inst.close()
	k := inst.corpus()
	if t.before, err = probeLayers(k, inst.servers()); err != nil {
		return t, err
	}
	t.storage = probeStorage(inst.dbs())

	t.m = measure(inst, lim)
	t.verr = inst.verify()

	if t.after, err = probeLayers(k, inst.servers()); err != nil {
		return t, err
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	t.heapSysMB = float64(mem.HeapSys) / (1 << 20)
	t.planEntries, t.rowsTotal = planEntries(inst.dbs()), rowsTotal(inst.dbs())
	if t.registerNS, err = probeRegisterNS(k, inst.servers()[0]); err != nil {
		return t, err
	}
	texts := k.distinct()
	t.parseUS, t.compileUS, t.thunkNS = probeParseUS(texts), probeCompileUS(texts, inst.dbs()), probeThunkNS()

	var logs [][]span
	for _, c := range inst.clients() {
		logs = append(logs, c.spans())
	}
	if cfg.traceOut != "" {
		if err := writeSpanFile(cfg.traceOut, logs); err != nil {
			return t, err
		}
	}
	for _, spans := range logs {
		a := aggregate(spans)
		for i := range t.agg {
			t.agg[i].count += a[i].count
			t.agg[i].dur += a[i].dur
			t.agg[i].self += a[i].self
		}
	}

	switch in := inst.(type) {
	case *pagesInstance:
		t.speedupP50 = medianFloat(in.speedups())
	case *oltpInstance:
		// Fig. 13: the same seeded sequence through the Direct executor,
		// which must leave the same rows behind.
		start := hostNow()
		for i := 0; i < t.m.passes; i++ {
			if err := in.direct.runPass(); err != nil {
				return t, fmt.Errorf("direct replay: %w", err)
			}
		}
		t.directWall = hostNow().Sub(start)
		if t.verr == nil && t.m.failed == 0 {
			t.verr = in.compareDirect()
		}
	}
	return t, nil
}

// runTraced is --trace 1: a freshly built deployment runs half the time
// budget with the benchmark's wrappers at the seams, bracketed by layer
// probes; a second fresh deployment then repeats the same passes untraced,
// which gives the tracing overhead (and, on oltp_sloth, the numerator of
// the lazy-evaluation overhead).
func runTraced(cfg config) (result, error) {
	lim := cfg.lim
	lim.seconds /= 2
	t, err := runTracedPhase(cfg, lim)
	if err != nil {
		return result{}, err
	}
	m, verr := t.m, t.verr

	plain, _, err := timedSetup(cfg, nil)
	if err != nil {
		return result{}, err
	}
	pm := measure(plain, limit{passes: m.passes})
	if verr == nil {
		verr = plain.verify()
	}
	plain.close()
	plainWall := wallAt(pm, m.passes)
	tracedWall := wallAt(m, m.passes)
	lazyOverheadPct := 0.0
	if t.directWall > 0 {
		lazyOverheadPct = 100 * (plainWall.Seconds() - t.directWall.Seconds()) / t.directWall.Seconds()
	}
	agg, before, after := t.agg, t.before, t.after

	rep := report{}
	set := func(name string, v float64) { rep.set(perLayer, name, v) }
	c := &m.ctr
	ops := float64(m.ops)
	sorted := sortedCopy(m.hostNS)
	virtSorted := sortedCopy(m.virtNS)
	submit, wait, op := agg[spanSubmit], agg[spanWait], agg[spanOp]

	set("webapp.model_puts_per_op", c.f(cModelPuts)/ops)
	set("webapp.rendered_per_op", c.f(cRendered)/ops)
	set("webapp.html_bytes_per_op", c.f(cHTMLBytes)/ops)
	set("webapp.client_self_us_per_op", us(op.self)/ops)

	set("orm.loads_per_op", c.f(cLoads)/ops)
	set("orm.entities_per_op", c.f(cEntities)/ops)
	set("orm.identity_hit_share", ratio(c.f(cIdentityHits), c.f(cLoads)))

	set("thunk.allocs_per_op", c.f(cThunkAllocs)/ops)
	set("thunk.memo_hit_share", ratio(c.f(cThunkMemoHits), c.f(cThunkForces)))
	set("thunk.new_force_ns", t.thunkNS)

	set("querystore.registered_per_op", c.f(cRegistered)/ops)
	set("querystore.dedup_hit_share", ratio(c.f(cDedupHits), c.f(cRegistered)+c.f(cDedupHits)))
	set("querystore.batches_per_op", c.f(cBatches)/ops)
	set("querystore.stmts_per_batch", ratio(c.f(cRegistered), c.f(cBatches)))
	set("querystore.max_batch", float64(c.maxBatch))
	set("querystore.forced_by_write_share", ratio(c.f(cForcedByWrite), c.f(cBatches)))
	set("querystore.register_ns_per_stmt", t.registerNS)
	set("querystore.lazy_overhead_pct", lazyOverheadPct)

	set("merge.saved_share", ratio(c.f(cMergeSaved), c.f(cDispStmtsIn)))
	set("merge.groups_per_batch", ratio(c.f(cMergeGroups), c.f(cMergeBatches)))
	set("merge.ineligible_share", ratio(c.f(cMergeIneligible), c.f(cDispStmtsIn)))
	set("merge.rows_demuxed_per_op", c.f(cMergeRowsDemuxed)/ops)
	set("merge.rewrite_us_per_batch", ratio(us(agg[spanRewrite].dur), float64(agg[spanRewrite].count)))
	set("merge.demux_us_per_batch", ratio(us(agg[spanDemux].dur), float64(agg[spanDemux].count)))

	set("dispatch.submit_us_per_batch", ratio(us(submit.dur), float64(submit.count)))
	set("dispatch.wait_us_per_batch", ratio(us(wait.dur), float64(wait.count)))
	set("dispatch.busy_share", ratio(float64(submit.dur+wait.dur), float64(op.dur)))
	set("dispatch.overlap_saved_virt_ms_per_op", ms(c.v[cOverlapSavedNS])/ops)
	set("dispatch.peak_queue", float64(c.peakQueue))
	set("dispatch.errors", c.f(cDispErrors))
	set("dispatch.retries", c.f(cDispRetries))

	set("driver.stmts_per_op", c.f(cDBStmts)/ops)
	set("driver.batches_per_op", c.f(cDBBatches)/ops)
	set("driver.rows_scanned_per_stmt", ratio(c.f(cDBRows), c.f(cDBStmts)))
	set("driver.db_time_virt_ms_per_op", ms(c.v[cDBTimeNS])/ops)
	set("driver.queue_wait_virt_ms_per_op", ms(c.v[cQueueWaitNS])/ops)
	set("driver.worker_wall_share", c.f(cWorkerWallNS)/float64(m.wall))
	set("driver.exec_batch_us_per_batch", before.execBatchUS)
	set("driver.self_us_per_batch", before.driverSelfUS())
	set("driver.self_growth", ratio(after.driverSelfUS(), before.driverSelfUS()))

	set("netsim.round_trips_per_op", c.f(cRoundTrips)/ops)
	set("netsim.net_time_virt_ms_per_op", ms(c.v[cNetTimeNS])/ops)
	set("netsim.bytes_per_op", c.f(cNetBytes)/ops)

	set("sqlparse.distinct_texts", float64(parseInternerTexts()))
	set("sqlparse.parse_calls_timed", c.f(cParseCalls))
	set("sqlparse.parse_us_per_stmt", t.parseUS)

	set("plan.cache_hit_share", ratio(c.f(cPlanHits), c.f(cPlanHits)+c.f(cPlanMisses)))
	set("plan.cache_entries", float64(t.planEntries))
	set("plan.compile_us_per_stmt", t.compileUS)

	set("engine.exec_us_per_stmt", before.engineUS)
	set("engine.rows_returned_per_stmt", before.rowsReturned)
	set("engine.exec_growth", ratio(after.engineUS, before.engineUS))

	set("storage.lookup_ns", t.storage.lookupNS)
	set("storage.scan_ns_per_row", t.storage.scanNSPerRow)
	set("storage.snapshot_acquire_ns", t.storage.snapshotNS)
	set("storage.rows_total", float64(t.rowsTotal))

	set("runtime.gc_cycles", c.f(cGCCycles))
	set("runtime.gc_pause_total_ms", ms(c.v[cGCPauseNS]))
	set("runtime.mallocs_per_op", c.f(cMallocs)/ops)
	set("runtime.heap_sys_mb", t.heapSysMB)

	set("virt.page_p50_ms", ms(percentile(virtSorted, 0.50)))
	set("virt.page_p99_ms", ms(percentile(virtSorted, 0.99)))
	set("virt.pages_per_s", ratio(ops, m.virtSpan.Seconds()))
	set("virt.speedup_p50", t.speedupP50)

	set("bench.trace_overhead_pct", 100*(tracedWall.Seconds()-plainWall.Seconds())/plainWall.Seconds())
	set("bench.pass_growth", passGrowth(m.passEndNS[0]))
	set("bench.host_op_p95_us", us(percentile(sorted, 0.95)))
	set("bench.host_op_p99_us", us(percentile(sorted, 0.99)))
	set("bench.host_op_max_us", us(sorted[len(sorted)-1]))
	set("bench.passes", float64(m.passes))
	set("bench.gomaxprocs", procs)
	set("bench.seed", float64(cfg.seed))

	failed := m.failed + pm.failed
	res := result{Correct: failed == 0 && verr == nil, Attempted: m.ops + pm.ops, Failed: failed, Metrics: rep}
	res.addFailures(m, verr)
	res.addFailures(pm, nil)
	return res, nil
}

func writeSpanFile(path string, logs [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSpans(f, logs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
