package bench

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/orm"
	"repro/internal/querystore"
)

// This file is the concurrent throughput experiment: N closed-loop sessions
// replay the full page suite against ONE database server and ONE app server,
// each session on its own virtual timeline, and the experiment reports
// simulated pages per second from the makespan. Session goroutines share
// the server's occupancy timeline (batches queue for the K DB worker
// queues) and the order's web-CPU lanes (app compute queues for the web
// host's cores), and the async dispatcher overlaps batch execution with
// app-server compute. Fig. 7 (throughput.go) is a view of the same cell in
// both modes. Each page load can also record a visit-log write (the
// audit/analytics INSERT every production handler makes), so the workload
// exercises write pipelining: with PipelineWrites the mutation rides the
// pipeline instead of costing its own blocking round trip. It is also the
// stress test that keeps the server path honest under `go test -race`.

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
						row, err := replayConcurrent(id, orm.ModeSloth, n, kind, pw, w, sc, opts)
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

// replayConcurrent is one cell: n sessions in one mode, one strategy, one
// DB worker count. Each session replays the whole suite on its own goroutine
// and virtual timeline; their connections share one driver.Order, so
// batches and app compute execute in virtual-arrival order and the cell is a
// pure function of the code whatever the host scheduler does.
func replayConcurrent(id AppID, mode orm.Mode, n int, kind dispatch.Kind, pipelineWrites bool, workers, shards int, opts ThroughputOptions) (ConcurrencyRow, error) {
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
	// histogram. Both are fresh per cell.
	pageLat := obs.NewHistogram()
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

	// Every connection joins the order before any session submits.
	var order driver.Order
	clocks := make([]*netsim.VirtualClock, n)
	conns := make([]*driver.Conn, n)
	sessions := make([]*orm.Session, n)
	stores := make([]*querystore.Store, n)
	for i := range clocks {
		clocks[i] = netsim.NewVirtualClock()
		conns[i] = env.Srv.Connect(netsim.NewLink(clocks[i], opts.RTT))
		order.Join(conns[i])
		stores[i] = querystore.New(conns[i], querystore.Config{
			Dispatch:       kind,
			PipelineWrites: pipelineWrites,
		})
		sessions[i] = orm.NewSession(stores[i], mode)
	}
	defer func() {
		for _, s := range stores {
			s.Close()
		}
	}()

	// replay is session i's closed loop: every page, then a final flush so
	// pipelined writes land (and report any deferred failure) before the
	// books are read. A session that overlapped those writes with later
	// pages advances its clock little or not at all there — that remaining
	// tail is the honest cost. It leaves the order however it ends.
	replay := func(i int) error {
		defer conns[i].Leave()
		for p, page := range pages {
			// The identity map is per request: clear between pages so
			// every load re-fetches, like a fresh ORM session.
			sessions[i].Clear()
			pageStart := clocks[i].Now()
			if _, err := env.LoadInto(page, sessions[i]); err != nil {
				return fmt.Errorf("session %d page %q: %w", i, page, err)
			}
			if opts.Visits {
				v := &visit{
					ID:      int64(i)*1_000_000 + int64(p) + 1,
					Session: int64(i),
					Page:    int64(p),
				}
				if err := visitMeta.Insert(sessions[i], v); err != nil {
					return fmt.Errorf("session %d page %q visit: %w", i, page, err)
				}
			}
			// Per-load latency on the session's own virtual clock
			// (including the visit write — it is part of the handler).
			pageLat.Observe(clocks[i].Now() - pageStart)
		}
		if err := stores[i].Flush(); err != nil {
			return fmt.Errorf("session %d final flush: %w", i, err)
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = replay(i)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return row, err
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
		overlap += stores[i].Dispatcher().Stats().OverlapSaved
	}
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
		pagesPerRow(r.Rows), r.App, r.RTT)
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
	sessions := distinct(r, func(row ConcurrencyRow) int { return row.Sessions })
	workers := distinct(r, func(row ConcurrencyRow) int { return row.Workers })
	shards := distinct(r, func(row ConcurrencyRow) int { return row.Shards })
	for _, n := range sessions {
		for _, w := range workers {
			for _, sc := range shards {
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
			for _, sc := range shards {
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

// distinct lists the values of one column of r's rows, in first-seen order.
func distinct(r ConcurrencyReport, col func(ConcurrencyRow) int) []int {
	var out []int
	for _, row := range r.Rows {
		if v := col(row); !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

func pagesPerRow(rows []ConcurrencyRow) int {
	if len(rows) == 0 || rows[0].Sessions == 0 {
		return 0
	}
	return rows[0].Pages / rows[0].Sessions
}
