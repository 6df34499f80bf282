package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/orm"
)

// This file reproduces the throughput experiment (Fig. 7): closed-loop
// clients loading OpenMRS pages, original vs Sloth. Each point is the
// replay cell that -exp throughput runs (replayConcurrent): N sessions, each
// replaying the page suite once, queue for the DB server's worker lanes and
// the app server's web-CPU lanes (driver.Order), and the rate is pages per
// virtual second of the makespan. Nothing is modelled: where the curves
// bend is where the web cores saturate in the replay.

// Fig. 7's settings: the paper's 0.5 ms RTT, 12 DB worker lanes, sync
// dispatch, no visit writes. A doubling counts as flat when it raises the
// rate by less than fig7Flat; the sweep stops once both curves have been
// flat for two doublings, or at fig7MaxClients.
const (
	fig7RTT        = 500 * time.Microsecond
	fig7Workers    = 12
	fig7Flat       = 0.01
	fig7MaxClients = 256
)

// ThroughputReport is the Fig. 7 curve: one replay cell per mode and
// client count, client counts doubling from 1.
type ThroughputReport struct {
	Orig, Sloth []ConcurrencyRow
}

// Throughput replays the OpenMRS suite under 1, 2, 4, ... closed-loop
// clients in both modes until both curves have been flat for two doublings.
func Throughput() (ThroughputReport, error) {
	var rep ThroughputReport
	opts := ThroughputOptions{RTT: fig7RTT}
	rises := func(rows []ConcurrencyRow, row ConcurrencyRow) bool {
		return len(rows) == 0 || row.Rate >= rows[len(rows)-1].Rate*(1+fig7Flat)
	}
	for n, flat := 1, 0; flat < 2 && n <= fig7MaxClients; n *= 2 {
		orig, err := replayConcurrent(OpenMRS, orm.ModeOriginal, n, dispatch.KindSync, false, fig7Workers, 1, opts)
		if err != nil {
			return rep, fmt.Errorf("bench: fig7 original x%d: %w", n, err)
		}
		sloth, err := replayConcurrent(OpenMRS, orm.ModeSloth, n, dispatch.KindSync, false, fig7Workers, 1, opts)
		if err != nil {
			return rep, fmt.Errorf("bench: fig7 sloth x%d: %w", n, err)
		}
		if rises(rep.Orig, orig) || rises(rep.Sloth, sloth) {
			flat = 0
		} else {
			flat++
		}
		rep.Orig, rep.Sloth = append(rep.Orig, orig), append(rep.Sloth, sloth)
	}
	return rep, nil
}

// peak is a curve's highest rate and the fewest clients that reach 95 % of
// it.
func peak(rows []ConcurrencyRow) (rate float64, near int) {
	for _, row := range rows {
		rate = max(rate, row.Rate)
	}
	for _, row := range rows {
		if row.Rate >= 0.95*rate {
			return rate, row.Sessions
		}
	}
	return rate, 0
}

// Format renders the Fig. 7 series.
func (r ThroughputReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Fig. 7: throughput vs closed-loop clients (%d-page OpenMRS suite per client) ==\n", pagesPerRow(r.Sloth))
	fmt.Fprintf(&sb, "sync dispatch, rtt %v, %d DB workers, %d web cores\n", fig7RTT, fig7Workers, driver.WebLanes)
	fmt.Fprintf(&sb, "%10s %14s %14s %14s %14s\n", "clients", "original p/s", "sloth p/s", "original p50", "sloth p50")
	for i, o := range r.Orig {
		s := r.Sloth[i]
		fmt.Fprintf(&sb, "%10d %14.1f %14.1f %14v %14v\n", o.Sessions, o.Rate, s.Rate,
			o.P50.Round(time.Microsecond), s.P50.Round(time.Microsecond))
	}
	orig, origAt := peak(r.Orig)
	sloth, slothAt := peak(r.Sloth)
	if n := len(r.Orig); n > 1 && orig > 0 {
		fmt.Fprintf(&sb, "peak ratio %.2fx (95%% of peak: sloth at %d clients, original at %d)\n", sloth/orig, slothAt, origAt)
		fmt.Fprintf(&sb, "last doubling moved original %+.2f%%, sloth %+.2f%%\n",
			100*(r.Orig[n-1].Rate/r.Orig[n-2].Rate-1), 100*(r.Sloth[n-1].Rate/r.Sloth[n-2].Rate-1))
	}
	return sb.String()
}
