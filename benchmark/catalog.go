package main

// This file is the benchmark's vocabulary: the workloads and every metric
// it can print. BENCHMARK.json at the repository root must list exactly
// these names (TestCatalogMatchesBenchmarkJSON), and README.md defines each.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef describes one printed metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen; per-layer
// metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

const (
	wlPagesSloth = "pages_sloth"
	wlPagesMerge = "pages_merge"
	wlSessionsRW = "sessions_rw"
	wlOLTPSloth  = "oltp_sloth"
)

var workloads = []workloadDef{
	{wlPagesSloth, "150 golden pages, Sloth mode, sync dispatch, merge off, 1 client: thunk/orm/querystore batching, driver read-batch path and engine reads do the work; merge, writes and concurrency do none"},
	{wlPagesMerge, "same loads with the merge optimizer on (all three families): analyze/rewrite/demux and IN-list/GROUP BY plans work here and are bypassed in pages_sloth"},
	{wlSessionsRW, "2 free-running clients, page load + access_log INSERT on a 2-shard DB, async dispatch with pipelined writes, long-lived sessions: the only workload with concurrency and writes beside reads"},
	{wlOLTPSloth, "TPC-C standard mix + TPC-W shopping mix through SlothExecutor, zero cost model: every result consumed at once, so nothing batches; register->force overhead and write-heavy growing tables"},
}

// endToEnd is what a user of the system sees. Every one applies to every
// workload and is never zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"host_ops_per_s", "op/s", "higher", 0.25},
	{"host_op_p50_us", "us", "lower", 0.25},
	{"host_alloc_kb_per_op", "KiB", "lower", 0.05},
	{"host_live_heap_mb", "MB", "lower", 0.15},
	{"virt_round_trips_per_op", "count", "lower", 0.02},
	{"virt_db_stmts_per_op", "count", "lower", 0.02},
}

// perLayer metrics are named <module>.<what>. Counts are deltas of the
// layers' own Stats() snapshots over the traced passes; *_us / *_ns values
// come from benchmark-owned spans and probes (trace.go, probes.go).
var perLayer = []metricDef{
	{"webapp.model_puts_per_op", "count", "lower", 0},
	{"webapp.rendered_per_op", "count", "lower", 0},
	{"webapp.html_bytes_per_op", "B", "lower", 0},
	{"webapp.client_self_us_per_op", "us", "lower", 0},

	{"orm.loads_per_op", "count", "lower", 0},
	{"orm.entities_per_op", "count", "lower", 0},
	{"orm.identity_hit_share", "share", "higher", 0},

	{"thunk.allocs_per_op", "count", "lower", 0},
	{"thunk.memo_hit_share", "share", "higher", 0},
	{"thunk.new_force_ns", "ns", "lower", 0},

	{"querystore.registered_per_op", "count", "lower", 0},
	{"querystore.dedup_hit_share", "share", "higher", 0},
	{"querystore.batches_per_op", "count", "lower", 0},
	{"querystore.stmts_per_batch", "count", "higher", 0},
	{"querystore.max_batch", "count", "higher", 0},
	{"querystore.forced_by_write_share", "share", "lower", 0},
	{"querystore.register_ns_per_stmt", "ns", "lower", 0},
	{"querystore.lazy_overhead_pct", "%", "lower", 0},

	{"merge.saved_share", "share", "higher", 0},
	{"merge.groups_per_batch", "count", "higher", 0},
	{"merge.ineligible_share", "share", "lower", 0},
	{"merge.rows_demuxed_per_op", "count", "lower", 0},
	{"merge.rewrite_us_per_batch", "us", "lower", 0},
	{"merge.demux_us_per_batch", "us", "lower", 0},

	{"dispatch.submit_us_per_batch", "us", "lower", 0},
	{"dispatch.wait_us_per_batch", "us", "lower", 0},
	{"dispatch.busy_share", "share", "lower", 0},
	{"dispatch.overlap_saved_virt_ms_per_op", "ms", "higher", 0},
	{"dispatch.peak_queue", "count", "lower", 0},
	{"dispatch.errors", "count", "lower", 0},
	{"dispatch.retries", "count", "lower", 0},

	{"driver.stmts_per_op", "count", "lower", 0},
	{"driver.batches_per_op", "count", "lower", 0},
	{"driver.rows_scanned_per_stmt", "count", "lower", 0},
	{"driver.db_time_virt_ms_per_op", "ms", "lower", 0},
	{"driver.queue_wait_virt_ms_per_op", "ms", "lower", 0},
	{"driver.worker_wall_share", "share", "lower", 0},
	{"driver.exec_batch_us_per_batch", "us", "lower", 0},
	{"driver.self_us_per_batch", "us", "lower", 0},
	{"driver.self_growth", "ratio", "lower", 0},

	{"netsim.round_trips_per_op", "count", "lower", 0},
	{"netsim.net_time_virt_ms_per_op", "ms", "lower", 0},
	{"netsim.bytes_per_op", "B", "lower", 0},

	{"sqlparse.distinct_texts", "count", "lower", 0},
	{"sqlparse.parse_calls_timed", "count", "lower", 0},
	{"sqlparse.parse_us_per_stmt", "us", "lower", 0},

	{"plan.cache_hit_share", "share", "higher", 0},
	{"plan.cache_entries", "count", "lower", 0},
	{"plan.compile_us_per_stmt", "us", "lower", 0},

	{"engine.exec_us_per_stmt", "us", "lower", 0},
	{"engine.rows_returned_per_stmt", "count", "lower", 0},
	{"engine.exec_growth", "ratio", "lower", 0},

	{"storage.lookup_ns", "ns", "lower", 0},
	{"storage.scan_ns_per_row", "ns", "lower", 0},
	{"storage.snapshot_acquire_ns", "ns", "lower", 0},
	{"storage.rows_total", "count", "lower", 0},

	{"runtime.gc_cycles", "count", "lower", 0},
	{"runtime.gc_pause_total_ms", "ms", "lower", 0},
	{"runtime.mallocs_per_op", "count", "lower", 0},
	{"runtime.heap_sys_mb", "MB", "lower", 0},

	// The paper's page-level numbers on the virtual clock (Figs. 5-7).
	// They repeat exactly on the single-client page workloads, which is
	// why they live here and not among the bounded end-to-end metrics: the
	// pipeline's spread check expects a measured time to vary run to run.
	{"virt.page_p50_ms", "ms", "lower", 0},
	{"virt.page_p99_ms", "ms", "lower", 0},
	{"virt.pages_per_s", "page/s", "higher", 0},
	{"virt.speedup_p50", "ratio", "higher", 0},

	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.pass_growth", "ratio", "lower", 0},
	{"bench.host_op_p95_us", "us", "lower", 0},
	{"bench.host_op_p99_us", "us", "lower", 0},
	{"bench.host_op_max_us", "us", "lower", 0},
	{"bench.passes", "count", "higher", 0},
	{"bench.gomaxprocs", "count", "higher", 0},
	{"bench.seed", "count", "higher", 0},
}

// knownWorkload reports whether the catalog has a workload of that name.
func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
