package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/dispatch"
	"repro/internal/faults"
	"repro/internal/orm"
	"repro/internal/querystore"
)

// This file is the fault-plane experiment (`slothbench -exp faults`): the
// page suite replayed under a swept injected-failure rate, with
// capped-backoff retries turned on. The report shows what robustness costs —
// goodput and tail latency versus the clean run — and what the retry plane
// absorbed (recovered attempts vs terminal failures). Every run is
// deterministic in the fault seed: same seed, same drops, same retries,
// same latencies.

// FaultSweepOptions configures FaultSweep.
type FaultSweepOptions struct {
	// Rates are the injected transient-failure rates to sweep (the
	// per-batch drop probability; link timeouts are injected at half the
	// rate). Include 0 for the clean baseline. Nil sweeps a default set.
	Rates []float64
	// Seed keys the fault plane's deterministic PRNG.
	Seed uint64
	RTT  time.Duration
}

// FaultRow is one fault-rate measurement.
type FaultRow struct {
	Rate     float64
	Pages    int           // page loads attempted
	Failed   int           // loads that failed terminally despite recovery
	Makespan time.Duration // total virtual time for the replay
	Goodput  float64       // successfully rendered pages per simulated second

	Retries  int64   // backed-off re-attempts that recovered batches
	Errors   int64   // terminal batch failures
	Overhead float64 // retries per submitted batch

	P50, P99 time.Duration // page latency percentiles (successful loads)

	Drops    int64 // injected exec failures
	Timeouts int64 // injected link timeouts
}

// FaultReport is the fault-rate sweep.
type FaultReport struct {
	App  AppID
	Seed uint64
	RTT  time.Duration
	Rows []FaultRow
}

// Row returns the measurement for a swept rate, if present.
func (r FaultReport) Row(rate float64) (FaultRow, bool) {
	for _, row := range r.Rows {
		if row.Rate == rate {
			return row, true
		}
	}
	return FaultRow{}, false
}

// faultSweepConfig is the injection schedule for one sweep cell: the swept
// drop rate, link timeouts at half that rate, and a fixed early outage
// window so the backoff schedule is exercised even at low rates.
func faultSweepConfig(seed uint64, rate float64) faults.Config {
	return faults.Config{
		Seed:            seed,
		ExecErrorRate:   rate,
		LinkTimeoutRate: rate / 2,
		Outages:         []faults.Outage{{Shard: 0, From: 5 * time.Millisecond, To: 8 * time.Millisecond}},
	}
}

// FaultSweep replays the app's page suite once per fault rate on a freshly
// seeded environment, with the fault plane keyed by opts.Seed and the
// recovery policy active. Terminal page failures are counted, not fatal:
// the sweep reports what the retry budget could not absorb.
func FaultSweep(id AppID, opts FaultSweepOptions) (FaultReport, error) {
	rates := opts.Rates
	if len(rates) == 0 {
		rates = []float64{0, 0.05, 0.1, 0.2}
	}
	rep := FaultReport{App: id, Seed: opts.Seed, RTT: opts.RTT}
	for _, rate := range rates {
		row, err := faultCell(id, rate, opts)
		if err != nil {
			return rep, fmt.Errorf("bench: faults rate %.2f: %w", rate, err)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// faultCell is one sweep cell: a fresh environment, the fault plane at one
// rate, every page loaded once through a retrying store.
func faultCell(id AppID, rate float64, opts FaultSweepOptions) (FaultRow, error) {
	env, err := NewEnv(id, 1, 1)
	if err != nil {
		return FaultRow{}, err
	}
	env.SetFaults(faultSweepConfig(opts.Seed, rate))
	cell := &liveCell{srv: env.Srv}
	live.Store(cell)

	row := FaultRow{Rate: rate}
	cfg := querystore.Config{Retry: dispatch.RetryPolicy{MaxAttempts: 8}}
	start := env.Clock.Now()
	var latencies []time.Duration
	var batches int64
	for _, page := range env.Pages() {
		_, m, err := env.LoadPageHTML(page, orm.ModeSloth, opts.RTT, cfg)
		row.Pages++
		row.Retries += m.Retries
		row.Errors += m.Errors
		row.Timeouts += m.Timeouts
		cell.linkTimeouts.Add(m.Timeouts)
		batches += m.Batches
		if err != nil {
			row.Failed++
			continue
		}
		latencies = append(latencies, m.Total)
	}
	row.Makespan = env.Clock.Now() - start
	if row.Makespan > 0 {
		row.Goodput = float64(row.Pages-row.Failed) / row.Makespan.Seconds()
	}
	if batches > 0 {
		row.Overhead = float64(row.Retries) / float64(batches)
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	row.P50 = quantileDur(latencies, 0.50)
	row.P99 = quantileDur(latencies, 0.99)
	row.Drops = env.Srv.Stats().FaultDrops
	return row, nil
}

// quantileDur reads the q-quantile from an ascending-sorted sample by the
// nearest-rank method: the ⌈q·n⌉-th smallest value, the rank rule
// obs.Histogram.Quantile follows (the virtual-clock samples are exact, so
// no interpolation — two same-seed runs produce identical quantiles).
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// Format renders the fault sweep table.
func (r FaultReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Fault plane: %s suite under injected failures, seed %d, rtt %v ==\n",
		r.App, r.Seed, r.RTT)
	fmt.Fprintf(&sb, "%6s %6s %7s %10s %12s %10s %8s %9s %8s %9s\n",
		"rate", "pages", "failed", "goodput/s", "p50 page", "p99", "retries", "retry/bat", "drops", "timeouts")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%6.2f %6d %7d %10.1f %12v %10v %8d %9.3f %8d %9d\n",
			row.Rate, row.Pages, row.Failed, row.Goodput,
			row.P50.Round(time.Microsecond), row.P99.Round(time.Microsecond),
			row.Retries, row.Overhead, row.Drops, row.Timeouts)
	}
	if base, ok := r.Row(0); ok && base.Goodput > 0 {
		for _, row := range r.Rows {
			if row.Rate == 0 {
				continue
			}
			fmt.Fprintf(&sb, "rate %.2f: goodput %.2fx of clean, p99 %+v\n",
				row.Rate, row.Goodput/base.Goodput, (row.P99 - base.P99).Round(time.Microsecond))
		}
	}
	return sb.String()
}
