package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/orm"
	"repro/internal/querystore"
)

// This file is the Fig. 7-style concurrent throughput experiment for the
// dispatch pipeline: N closed-loop sessions replay the full page suite
// against ONE database server, each session on its own virtual timeline,
// and the experiment reports simulated pages per second from the makespan.
// Unlike the queueing-model Throughput (fig7), which derives curves from
// single-session demands, this experiment actually RUNS the concurrency:
// session goroutines share the server's occupancy timeline (batches queue
// for the K DB worker queues), and the async dispatcher overlaps batch
// execution with app-server compute. Each page load also
// records a visit-log write (the audit/analytics INSERT every production
// handler makes), so the workload exercises write pipelining: with
// PipelineWrites the mutation rides the pipeline instead of costing its
// own blocking round trip. It is also the stress test that keeps the
// server path honest under `go test -race`.

// visit is the access-log row the throughput workload inserts once per
// page load.
type visit struct {
	ID      int64 `orm:"id,pk"`
	Session int64 `orm:"session_id"`
	Page    int64 `orm:"page_id"`
}

var visitMeta = orm.MustRegister[visit]("access_log")

// visitSchema creates the access-log table in an environment whose app
// schema does not include it.
const visitSchema = "CREATE TABLE access_log (id INT PRIMARY KEY, session_id INT, page_id INT)"

// ThroughputOptions configures ConcurrentThroughput's sweep.
type ThroughputOptions struct {
	Sessions []int           // concurrent session counts
	Kinds    []dispatch.Kind // dispatch strategies to compare
	Workers  []int           // server DB worker queues; nil sweeps just 1
	// Shards sweeps database shard counts (each cell reseeds a fresh
	// environment partitioned that way); nil measures just the unsharded
	// server. Sharding changes occupancy only — every page renders the
	// same bytes at any shard count — so the column isolates what
	// horizontal partitioning buys under concurrency.
	Shards []int
	// Scale multiplies the seeded data sizes (NewEnv's scale knob); <= 1
	// is the standard database. Larger scans raise DB utilization, which
	// is where shard and worker parallelism become visible.
	Scale int
	RTT   time.Duration
	// Visits makes every page load record one visit-log write. Deferred
	// strategies are then measured twice — writes forced (the pre-
	// pipelining behaviour) and writes pipelined — so the report shows
	// what write pipelining buys.
	Visits bool
	// Pages restricts the replay to a page subset (tests); nil replays the
	// app's full suite.
	Pages []string
}

// ConcurrencyRow is one (strategy, sessions, workers) measurement.
type ConcurrencyRow struct {
	Kind            dispatch.Kind
	PipelinedWrites bool // writes rode the pipeline (deferred kinds only)
	Sessions        int
	Workers         int           // server DB worker queues (per shard)
	Shards          int           // database shard count
	Pages           int           // total page loads completed
	Writes          int64         // visit-log writes issued
	Makespan        time.Duration // max session virtual time
	Rate            float64       // pages per simulated second
	AvgPage         time.Duration // mean page latency across sessions

	// P50/P95/P99 are page-latency percentiles from the cell's page-latency
	// histogram (per-load virtual-clock deltas, so the tail is visible, not
	// just the mean). QW95 is the 95th-percentile batch queue wait for DB
	// worker capacity, from the server's queue-wait histogram.
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	QW95 time.Duration

	DBStmts   int64         // statements executed at the database
	DBTime    time.Duration // server busy time
	QueueWait time.Duration // time batches queued for DB worker capacity
	Overlap   time.Duration // execution time hidden behind app compute
}

// Strategy labels the row's dispatch configuration.
func (row ConcurrencyRow) Strategy() string {
	if row.PipelinedWrites {
		return row.Kind.String() + "+pw"
	}
	return row.Kind.String()
}

// ConcurrencyReport is the dispatch-strategy throughput comparison.
type ConcurrencyReport struct {
	App  AppID
	RTT  time.Duration
	Rows []ConcurrencyRow
}

// Row returns the unsharded measurement for (kind, pipelined-writes,
// sessions, workers), if present.
func (r ConcurrencyReport) Row(kind dispatch.Kind, pw bool, sessions, workers int) (ConcurrencyRow, bool) {
	return r.RowSharded(kind, pw, sessions, workers, 1)
}

// RowSharded returns the measurement for (kind, pipelined-writes,
// sessions, workers, shards), if present.
func (r ConcurrencyReport) RowSharded(kind dispatch.Kind, pw bool, sessions, workers, shards int) (ConcurrencyRow, bool) {
	for _, row := range r.Rows {
		if row.Kind == kind && row.PipelinedWrites == pw && row.Sessions == sessions &&
			row.Workers == workers && row.Shards == shards {
			return row, true
		}
	}
	return ConcurrencyRow{}, false
}

// ConcurrentThroughput replays the app's page suite under every listed
// session count, dispatch strategy, and DB worker count. Each cell runs on
// a freshly seeded environment so server occupancy and data state never
// leak between configurations.
func ConcurrentThroughput(id AppID, opts ThroughputOptions) (ConcurrencyReport, error) {
	rep := ConcurrencyReport{App: id, RTT: opts.RTT}
	workers := opts.Workers
	if len(workers) == 0 {
		workers = []int{1}
	}
	shards := opts.Shards
	if len(shards) == 0 {
		shards = []int{1}
	}
	for _, n := range opts.Sessions {
		for _, w := range workers {
			for _, sc := range shards {
				for _, kind := range opts.Kinds {
					pws := []bool{false}
					if opts.Visits && kind != dispatch.KindSync {
						pws = []bool{false, true}
					}
					for _, pw := range pws {
						row, err := replayConcurrent(id, n, kind, pw, w, sc, opts)
						if err != nil {
							return rep, fmt.Errorf("bench: throughput %s x%d w%d s%d: %w", kind, n, w, sc, err)
						}
						rep.Rows = append(rep.Rows, row)
					}
				}
			}
		}
	}
	return rep, nil
}

// replayConcurrent is one cell: n sessions, one strategy, one DB worker
// count. Sessions load pages in lockstep rounds — every session loads page
// k concurrently, then a barrier — which keeps their virtual clocks
// aligned (the occupancy model assumes comparable timelines).
func replayConcurrent(id AppID, n int, kind dispatch.Kind, pipelineWrites bool, workers, shards int, opts ThroughputOptions) (ConcurrencyRow, error) {
	if shards < 1 {
		shards = 1
	}
	scale := opts.Scale
	if scale < 1 {
		scale = 1
	}
	env, err := NewEnv(id, scale, shards)
	if err != nil {
		return ConcurrencyRow{}, err
	}
	env.Srv.SetWorkers(workers)
	// The replay loop feeds pageLat below; the server keeps the queue-wait
	// histogram. Both are fresh per cell and published for -debugaddr.
	pageLat := obs.NewHistogram()
	live.Store(&liveCell{srv: env.Srv, pageLat: pageLat})
	row := ConcurrencyRow{Kind: kind, PipelinedWrites: pipelineWrites, Sessions: n, Workers: workers, Shards: shards}
	pages := opts.Pages
	if len(pages) == 0 {
		pages = env.Pages()
	}

	if opts.Visits {
		// Create the table directly in the engine, like the seed fixtures:
		// DDL through a timed connection would charge worker 0's busy
		// horizon before any session starts and skew QueueWait.
		if _, err := env.Srv.DB().NewSession().Exec(visitSchema); err != nil {
			return row, err
		}
	}

	clocks := make([]*netsim.VirtualClock, n)
	sessions := make([]*orm.Session, n)
	stores := make([]*querystore.Store, n)
	for i := range clocks {
		clocks[i] = netsim.NewVirtualClock()
		conn := env.Srv.Connect(netsim.NewLink(clocks[i], opts.RTT))
		stores[i] = querystore.New(conn, querystore.Config{
			Dispatch:       kind,
			PipelineWrites: pipelineWrites,
		})
		sessions[i] = orm.NewSession(stores[i], orm.ModeSloth)
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	for p, page := range pages {
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// The identity map is per request: clear between pages so
				// every load re-fetches, like a fresh ORM session.
				sessions[i].Clear()
				pageStart := clocks[i].Now()
				if _, err := env.LoadInto(page, sessions[i]); err != nil {
					fail(fmt.Errorf("session %d page %q: %w", i, page, err))
					return
				}
				if opts.Visits {
					v := &visit{
						ID:      int64(i)*1_000_000 + int64(p) + 1,
						Session: int64(i),
						Page:    int64(p),
					}
					if err := visitMeta.Insert(sessions[i], v); err != nil {
						fail(fmt.Errorf("session %d page %q visit: %w", i, page, err))
					}
				}
				// Per-load latency on the session's own virtual clock
				// (including the visit write — it is part of the handler).
				// Histogram buckets are order-independent counters, so
				// concurrent observations stay deterministic.
				pageLat.Observe(clocks[i].Now() - pageStart)
			}(i)
		}
		wg.Wait()
		if firstErr != nil {
			return row, firstErr
		}
	}

	// Quiesce: collect every in-flight batch so pipelined writes land (and
	// report any deferred failure) before the books are read. Sessions that
	// overlapped those writes with later pages advance their clocks little
	// or not at all here — that remaining tail is the honest cost.
	for i, s := range stores {
		if err := s.Flush(); err != nil {
			return row, fmt.Errorf("session %d final flush: %w", i, err)
		}
	}

	row.Pages = n * len(pages)
	if opts.Visits {
		row.Writes = int64(row.Pages)
	}
	var overlap time.Duration
	for i := range clocks {
		if t := clocks[i].Now(); t > row.Makespan {
			row.Makespan = t
		}
		row.AvgPage += clocks[i].Now()
		overlap += stores[i].Dispatcher().Stats().OverlapSaved
	}
	row.AvgPage /= time.Duration(row.Pages)
	if row.Makespan > 0 {
		row.Rate = float64(row.Pages) / row.Makespan.Seconds()
	}
	srv := env.Srv.Stats()
	row.DBStmts = srv.Queries
	row.DBTime = srv.DBTime
	row.QueueWait = srv.QueueWait
	row.Overlap = overlap
	row.P50 = pageLat.Quantile(0.50)
	row.P95 = pageLat.Quantile(0.95)
	row.P99 = pageLat.Quantile(0.99)
	row.QW95 = env.Srv.QueueWaits().Quantile(0.95)
	return row, nil
}

// Format renders the throughput table, grouped by session count.
func (r ConcurrencyReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Throughput: %d-page %s suite, concurrent sessions, rtt %v ==\n",
		pagesPerRow(r), r.App, r.RTT)
	fmt.Fprintf(&sb, "%8s %10s %7s %6s %10s %12s %10s %10s %10s %12s %9s %11s %11s\n",
		"sessions", "dispatch", "workers", "shards", "pages/s", "p50 page", "p95", "p99", "qw p95", "makespan", "db stmts", "queue wait", "overlapped")
	last := -1
	for _, row := range r.Rows {
		if last != -1 && row.Sessions != last {
			sb.WriteByte('\n')
		}
		last = row.Sessions
		fmt.Fprintf(&sb, "%8d %10s %7d %6d %10.1f %12v %10v %10v %10v %12v %9d %11v %11v\n",
			row.Sessions, row.Strategy(), row.Workers, row.Shards, row.Rate,
			row.P50.Round(time.Microsecond),
			row.P95.Round(time.Microsecond),
			row.P99.Round(time.Microsecond),
			row.QW95.Round(time.Microsecond),
			row.Makespan.Round(10*time.Microsecond),
			row.DBStmts,
			row.QueueWait.Round(time.Microsecond),
			row.Overlap.Round(time.Microsecond))
	}
	for _, n := range sessionCounts(r) {
		for _, w := range workerCounts(r) {
			for _, sc := range shardCounts(r) {
				s, okS := r.RowSharded(dispatch.KindSync, false, n, w, sc)
				a, okA := r.RowSharded(dispatch.KindAsync, false, n, w, sc)
				if okS && okA && s.Rate > 0 {
					fmt.Fprintf(&sb, "x%d w%d s%d: async %.2fx over sync\n",
						n, w, sc, a.Rate/s.Rate)
				}
				apw, okApw := r.RowSharded(dispatch.KindAsync, true, n, w, sc)
				if okA && okApw && a.Rate > 0 {
					fmt.Fprintf(&sb, "x%d w%d s%d: write pipelining async %.3fx\n",
						n, w, sc, apw.Rate/a.Rate)
				}
			}
			// Sharding speedups: each partitioned cell against its
			// unsharded baseline for the same strategy.
			for _, sc := range shardCounts(r) {
				if sc <= 1 {
					continue
				}
				for _, kind := range []dispatch.Kind{dispatch.KindSync, dispatch.KindAsync} {
					for _, pw := range []bool{false, true} {
						base, okBase := r.RowSharded(kind, pw, n, w, 1)
						part, okPart := r.RowSharded(kind, pw, n, w, sc)
						if okBase && okPart && base.Rate > 0 {
							fmt.Fprintf(&sb, "x%d w%d %s: %d shards %.2fx over 1 shard\n",
								n, w, part.Strategy(), sc, part.Rate/base.Rate)
						}
					}
				}
			}
		}
	}
	return sb.String()
}

func shardCounts(r ConcurrencyReport) []int {
	var out []int
	seen := make(map[int]bool)
	for _, row := range r.Rows {
		if !seen[row.Shards] {
			seen[row.Shards] = true
			out = append(out, row.Shards)
		}
	}
	return out
}

func pagesPerRow(r ConcurrencyReport) int {
	if len(r.Rows) == 0 || r.Rows[0].Sessions == 0 {
		return 0
	}
	return r.Rows[0].Pages / r.Rows[0].Sessions
}

func sessionCounts(r ConcurrencyReport) []int {
	var out []int
	seen := make(map[int]bool)
	for _, row := range r.Rows {
		if !seen[row.Sessions] {
			seen[row.Sessions] = true
			out = append(out, row.Sessions)
		}
	}
	return out
}

func workerCounts(r ConcurrencyReport) []int {
	var out []int
	seen := make(map[int]bool)
	for _, row := range r.Rows {
		if !seen[row.Workers] {
			seen[row.Workers] = true
			out = append(out, row.Workers)
		}
	}
	return out
}
