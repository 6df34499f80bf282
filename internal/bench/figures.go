package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/orm"
)

// This file implements the per-figure reports for Figs. 5, 6, 8, 9, 10 and
// the appendix table. Throughput (Fig. 7, a view of the concurrent replay),
// the compiler experiments (Figs. 11, 12), and overhead (Fig. 13) live in
// their own files.

// ---------------------------------------------------------------------------
// Figs. 5 & 6 — CDFs of speedup, round-trip ratio, and query ratio.

// CDFReport holds the three sorted ratio series the paper plots.
type CDFReport struct {
	App         AppID
	Speedups    []float64
	TripRatios  []float64
	QueryRatios []float64
}

// BuildCDF sorts the per-page ratios (the paper sorts benchmarks by ratio
// for presentation).
func BuildCDF(app AppID, comps []Comparison) CDFReport {
	r := CDFReport{App: app}
	for _, c := range comps {
		r.Speedups = append(r.Speedups, c.Speedup())
		r.TripRatios = append(r.TripRatios, c.TripRatio())
		r.QueryRatios = append(r.QueryRatios, c.QueryRatio())
	}
	sort.Float64s(r.Speedups)
	sort.Float64s(r.TripRatios)
	sort.Float64s(r.QueryRatios)
	return r
}

// Median returns the middle value of a sorted series.
func Median(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// Max returns the last value of a sorted series.
func Max(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[len(sorted)-1]
}

// Min returns the first value of a sorted series.
func Min(sorted []float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[0]
}

// Format renders the three CDF series as the paper's (a)/(b)/(c) panels.
func (r CDFReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Fig. %s: %s benchmark CDFs (%d pages) ==\n", figNo(r.App), r.App, len(r.Speedups))
	fmt.Fprintf(&sb, "(a) load-time speedup:    min %.2fx  median %.2fx  max %.2fx\n",
		Min(r.Speedups), Median(r.Speedups), Max(r.Speedups))
	fmt.Fprintf(&sb, "(b) round-trip ratio:     min %.2fx  median %.2fx  max %.2fx\n",
		Min(r.TripRatios), Median(r.TripRatios), Max(r.TripRatios))
	fmt.Fprintf(&sb, "(c) issued-query ratio:   min %.2fx  median %.2fx  max %.2fx\n",
		Min(r.QueryRatios), Median(r.QueryRatios), Max(r.QueryRatios))
	sb.WriteString(cdfLine("speedup", r.Speedups))
	sb.WriteString(cdfLine("trips  ", r.TripRatios))
	sb.WriteString(cdfLine("queries", r.QueryRatios))
	return sb.String()
}

// cdfLine prints deciles of a sorted series (the plotted curve).
func cdfLine(label string, sorted []float64) string {
	if len(sorted) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "    %s deciles:", label)
	for d := 0; d <= 10; d++ {
		idx := d * (len(sorted) - 1) / 10
		fmt.Fprintf(&sb, " %.2f", sorted[idx])
	}
	sb.WriteByte('\n')
	return sb.String()
}

func figNo(app AppID) string {
	if app == Itracker {
		return "5"
	}
	return "6"
}

// ---------------------------------------------------------------------------
// Fig. 8 — aggregate time breakdown (network / app server / DB).

// BreakdownReport aggregates where page-load time goes per mode.
type BreakdownReport struct {
	App                         AppID
	OrigNet, OrigApp, OrigDB    time.Duration
	SlothNet, SlothApp, SlothDB time.Duration
}

// TimeBreakdown sums the per-phase times across all benchmarks.
func TimeBreakdown(app AppID, comps []Comparison) BreakdownReport {
	r := BreakdownReport{App: app}
	for _, c := range comps {
		r.OrigNet += c.Orig.NetTime
		r.OrigApp += c.Orig.AppTime
		r.OrigDB += c.Orig.DBTime
		r.SlothNet += c.Sloth.NetTime
		r.SlothApp += c.Sloth.AppTime
		r.SlothDB += c.Sloth.DBTime
	}
	return r
}

// Format renders the two stacked bars of Fig. 8 with percentage shares.
func (r BreakdownReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Fig. 8: %s aggregate time breakdown ==\n", r.App)
	origTotal := r.OrigNet + r.OrigApp + r.OrigDB
	slothTotal := r.SlothNet + r.SlothApp + r.SlothDB
	pct := func(part, whole time.Duration) float64 {
		if whole == 0 {
			return 0
		}
		return 100 * float64(part) / float64(whole)
	}
	fmt.Fprintf(&sb, "original:       net %8v (%4.1f%%)  app %8v (%4.1f%%)  db %8v (%4.1f%%)  total %v\n",
		r.OrigNet.Round(time.Microsecond), pct(r.OrigNet, origTotal),
		r.OrigApp.Round(time.Microsecond), pct(r.OrigApp, origTotal),
		r.OrigDB.Round(time.Microsecond), pct(r.OrigDB, origTotal), origTotal.Round(time.Microsecond))
	fmt.Fprintf(&sb, "sloth compiled: net %8v (%4.1f%%)  app %8v (%4.1f%%)  db %8v (%4.1f%%)  total %v\n",
		r.SlothNet.Round(time.Microsecond), pct(r.SlothNet, slothTotal),
		r.SlothApp.Round(time.Microsecond), pct(r.SlothApp, slothTotal),
		r.SlothDB.Round(time.Microsecond), pct(r.SlothDB, slothTotal), slothTotal.Round(time.Microsecond))
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 9 — speedup CDFs as RTT scales (0.5 / 1 / 10 ms).

// ScalingReport maps each RTT to the sorted speedup series.
type ScalingReport struct {
	App  AppID
	RTTs []time.Duration
	// Speedups[i] corresponds to RTTs[i].
	Speedups [][]float64
}

// NetworkScaling re-runs the suite at each RTT.
func NetworkScaling(env *Env, rtts []time.Duration) (ScalingReport, error) {
	r := ScalingReport{App: env.ID, RTTs: rtts}
	for _, rtt := range rtts {
		comps, err := env.RunSuite(rtt)
		if err != nil {
			return ScalingReport{}, err
		}
		cdf := BuildCDF(env.ID, comps)
		r.Speedups = append(r.Speedups, cdf.Speedups)
	}
	return r, nil
}

// Format renders one CDF summary line per RTT.
func (r ScalingReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Fig. 9: %s network scaling ==\n", r.App)
	for i, rtt := range r.RTTs {
		s := r.Speedups[i]
		fmt.Fprintf(&sb, "rtt %5v: speedup min %.2fx median %.2fx max %.2fx\n",
			rtt, Min(s), Median(s), Max(s))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 10 — load time vs database size for the two scaling pages.

// DBScalingRow is one point of Fig. 10.
type DBScalingRow struct {
	Scale      int
	Entities   int
	OrigTime   time.Duration
	SlothTime  time.Duration
	SlothBatch int
}

// DBScalingReport holds the sweep for one app's scaling page.
type DBScalingReport struct {
	App  AppID
	Page string
	Rows []DBScalingRow
}

// DBScaling grows the database and measures the paper's two scaling pages:
// itracker's list_projects and OpenMRS's encounterDisplay.
func DBScaling(app AppID, scales []int) (DBScalingReport, error) {
	r := DBScalingReport{App: app}
	if app == Itracker {
		r.Page = "module-projects/list projects.jsp"
	} else {
		r.Page = "encounters/encounterDisplay.jsp"
	}
	for _, scale := range scales {
		env, err := NewEnv(app, scale, 1)
		if err != nil {
			return DBScalingReport{}, err
		}
		_, orig, err := env.LoadPageHTML(r.Page, orm.ModeOriginal, 500*time.Microsecond, env.StoreCfg)
		if err != nil {
			return DBScalingReport{}, err
		}
		_, sloth, err := env.LoadPageHTML(r.Page, orm.ModeSloth, 500*time.Microsecond, env.StoreCfg)
		if err != nil {
			return DBScalingReport{}, err
		}
		entities := scale * 10
		if app == OpenMRS {
			entities = scale * 36 // observations for the dashboard patient
		}
		r.Rows = append(r.Rows, DBScalingRow{
			Scale:      scale,
			Entities:   entities,
			OrigTime:   orig.Total,
			SlothTime:  sloth.Total,
			SlothBatch: sloth.MaxBatch,
		})
	}
	return r, nil
}

// Format renders the Fig. 10 series.
func (r DBScalingReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Fig. 10: %s database scaling (%s) ==\n", r.App, r.Page)
	fmt.Fprintf(&sb, "%10s %10s %14s %14s %10s %9s\n", "scale", "entities", "original", "sloth", "speedup", "maxbatch")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%10d %10d %14v %14v %9.2fx %9d\n",
			row.Scale, row.Entities,
			row.OrigTime.Round(time.Microsecond), row.SlothTime.Round(time.Microsecond),
			float64(row.OrigTime)/float64(row.SlothTime), row.SlothBatch)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Appendix — the full per-benchmark detail table.

// AppendixTable renders the per-page table from the paper's appendix:
// original time and round trips, sloth time, round trips, max batch, and
// total issued queries.
func AppendixTable(app AppID, comps []Comparison) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Appendix: %s per-benchmark detail ==\n", app)
	fmt.Fprintf(&sb, "%-55s %12s %8s %12s %8s %9s %8s %7s\n",
		"benchmark", "orig time", "r-trips", "sloth time", "r-trips", "maxbatch", "queries", "saved")
	for _, c := range comps {
		fmt.Fprintf(&sb, "%-55s %12v %8d %12v %8d %9d %8d %7d\n",
			c.Page,
			c.Orig.Total.Round(time.Microsecond), c.Orig.RoundTrips,
			c.Sloth.Total.Round(time.Microsecond), c.Sloth.RoundTrips,
			c.Sloth.MaxBatch, c.Sloth.Queries, c.Sloth.MergeSaved)
	}
	return sb.String()
}
