package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/lazyc"
	"repro/internal/netsim"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
)

// This file covers the compiler experiments: the selective-compilation
// method counts (Fig. 11) and the optimization ablation (Fig. 12), both
// over the kernel-language pipeline in internal/lazyc.

// ---------------------------------------------------------------------------
// Fig. 11 — persistent vs non-persistent method counts.

// MethodCountRow is one application's analysis result.
type MethodCountRow struct {
	App           string
	Persistent    int
	NonPersistent int
}

// MethodCountReport is the Fig. 11 table.
type MethodCountReport struct{ Rows []MethodCountRow }

// PersistentMethods runs the inter-procedural persistence analysis over
// application-scale synthetic call graphs shaped like the two evaluation
// code bases (the paper analyzed 9713 and 2452 Java methods).
func PersistentMethods() MethodCountReport {
	var rep MethodCountReport
	for _, tc := range []struct {
		name string
		spec lazyc.SynthSpec
	}{
		{"OpenMRS", lazyc.OpenMRSSpec()},
		{"itracker", lazyc.ItrackerSpec()},
	} {
		prog := lazyc.SyntheticCallGraph(tc.spec)
		p, np := lazyc.PersistenceCounts(prog)
		rep.Rows = append(rep.Rows, MethodCountRow{App: tc.name, Persistent: p, NonPersistent: np})
	}
	return rep
}

// Format renders the Fig. 11 table.
func (r MethodCountReport) Format() string {
	var sb strings.Builder
	sb.WriteString("== Fig. 11: persistent method analysis ==\n")
	fmt.Fprintf(&sb, "%-10s %22s %26s\n", "App", "# persistent methods", "# non-persistent methods")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-10s %22d %26d\n", row.App, row.Persistent, row.NonPersistent)
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Fig. 12 — cumulative effect of the optimizations on total runtime.

// AblationPoint is one bar of Fig. 12.
type AblationPoint struct {
	Label string
	Time  time.Duration
	// ThunkAllocs and RoundTrips explain where the time went.
	ThunkAllocs int64
	RoundTrips  int64
}

// AblationReport is the Fig. 12 series for the kernel-language benchmark
// pages.
type AblationReport struct {
	Points []AblationPoint
	// Repeats is how many times each page ran per configuration.
	Repeats int
}

// OptimizationAblation runs the kernel-language benchmark pages with the
// optimizations enabled cumulatively (noopt, SC, SC+TC, SC+TC+BD), charging
// thunk costs and round trips to a virtual clock, exactly the progression
// of Fig. 12.
func OptimizationAblation(repeats int) (AblationReport, error) {
	configs := []struct {
		label string
		opts  lazyc.Options
	}{
		{"noopt", lazyc.Options{}},
		{"SC", lazyc.Options{SC: true}},
		{"SC+TC", lazyc.Options{SC: true, TC: true}},
		{"SC+TC+BD", lazyc.AllOptimizations()},
	}
	pages := lazyc.BenchmarkPageSources()
	// Fixed page order: which page's error surfaces, and the execution
	// sequence itself, must not depend on map iteration.
	names := make([]string, 0, len(pages))
	for name := range pages {
		names = append(names, name)
	}
	sort.Strings(names)
	rep := AblationReport{Repeats: repeats}
	for _, cfg := range configs {
		var total time.Duration
		var allocs, trips int64
		for _, name := range names {
			src := pages[name]
			prog, err := lazyc.ParseProgram(src)
			if err != nil {
				return rep, fmt.Errorf("bench: page %s: %w", name, err)
			}
			lazyc.Simplify(prog)
			for i := 0; i < repeats; i++ {
				clock := netsim.NewVirtualClock()
				db := engine.New()
				if err := seedKernelTable(db); err != nil {
					return rep, err
				}
				srv := driver.NewServer(db, clock, driver.DefaultCostModel())
				link := netsim.NewLink(clock, 500*time.Microsecond)
				store := querystore.New(srv.Connect(link), querystore.Config{})
				in := lazyc.NewLazy(prog, store, cfg.opts, clock, lazyc.DefaultCostModel())
				start := clock.Now()
				if err := in.Run(); err != nil {
					return rep, fmt.Errorf("bench: page %s (%s): %w", name, cfg.label, err)
				}
				total += clock.Now() - start
				allocs += in.Stats().ThunkAllocs
				trips += link.Stats().RoundTrips
			}
		}
		rep.Points = append(rep.Points, AblationPoint{
			Label: cfg.label, Time: total, ThunkAllocs: allocs, RoundTrips: trips,
		})
	}
	return rep, nil
}

// seedKernelTable loads the table the kernel benchmark pages query.
func seedKernelTable(db *engine.DB) error {
	s := db.NewSession()
	stmts := []string{
		"CREATE TABLE t (id INT PRIMARY KEY, v INT, name TEXT)",
		"INSERT INTO t (id, v, name) VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c'), (4, 40, 'd'), (5, 50, 'e'), (6, 60, 'f'), (7, 70, 'g'), (8, 80, 'h')",
	}
	for _, sql := range stmts {
		if _, err := s.Exec(sql); err != nil {
			return err
		}
	}
	return nil
}

// Format renders the Fig. 12 bars.
func (r AblationReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== Fig. 12: optimization ablation (kernel pages x%d) ==\n", r.Repeats)
	fmt.Fprintf(&sb, "%-10s %14s %14s %12s\n", "config", "runtime", "thunk allocs", "round trips")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "%-10s %14v %14d %12d\n", p.Label, p.Time.Round(time.Microsecond), p.ThunkAllocs, p.RoundTrips)
	}
	if len(r.Points) >= 2 {
		first, last := r.Points[0].Time, r.Points[len(r.Points)-1].Time
		if last > 0 {
			fmt.Fprintf(&sb, "noopt / all-opts runtime ratio: %.2fx\n", float64(first)/float64(last))
		}
	}
	return sb.String()
}
