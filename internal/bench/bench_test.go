package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/orm"
	"repro/internal/querystore"
)

// envCache shares seeded environments across tests (read-only workloads).
var envCache = map[AppID]*Env{}

func getEnv(t *testing.T, id AppID) *Env {
	t.Helper()
	if e, ok := envCache[id]; ok {
		return e
	}
	e, err := NewEnv(id, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	envCache[id] = e
	return e
}

func TestSuiteItrackerShapes(t *testing.T) {
	env := getEnv(t, Itracker)
	comps, err := env.RunSuite(500 * time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 38 {
		t.Fatalf("pages = %d, want 38", len(comps))
	}
	cdf := BuildCDF(Itracker, comps)
	// Fig. 5 shapes: median speedup in the 1.1–1.6 band at 0.5 ms; every
	// page's trip ratio >= 1.
	if m := Median(cdf.Speedups); m < 1.05 || m > 2.0 {
		t.Errorf("median speedup %.2f outside plausible band", m)
	}
	if Min(cdf.TripRatios) < 1.0 {
		t.Errorf("some page got MORE round trips under sloth: min ratio %.2f", Min(cdf.TripRatios))
	}
	if Max(cdf.TripRatios) < 2.0 {
		t.Errorf("max trip ratio %.2f too small", Max(cdf.TripRatios))
	}
	out := cdf.Format()
	if !strings.Contains(out, "Fig. 5") {
		t.Errorf("report header wrong: %s", out)
	}
}

func TestSuiteOpenMRSShapes(t *testing.T) {
	env := getEnv(t, OpenMRS)
	comps, err := env.RunSuite(500 * time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(comps) != 112 {
		t.Fatalf("pages = %d, want 112", len(comps))
	}
	cdf := BuildCDF(OpenMRS, comps)
	if m := Median(cdf.Speedups); m < 1.05 || m > 2.5 {
		t.Errorf("median speedup %.2f outside plausible band", m)
	}
	if Max(cdf.TripRatios) < 4 {
		t.Errorf("max trip ratio %.2f; OpenMRS should batch heavily somewhere", Max(cdf.TripRatios))
	}
	// The paper sees a few pages where Sloth issues MORE queries (ratio<1)
	// and many where it issues fewer (ratio>1).
	if Max(cdf.QueryRatios) <= 1 {
		t.Errorf("no page issued fewer queries under sloth (max ratio %.2f)", Max(cdf.QueryRatios))
	}
}

func TestTimeBreakdownShape(t *testing.T) {
	env := getEnv(t, Itracker)
	comps, err := env.RunSuite(500 * time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	br := TimeBreakdown(Itracker, comps)
	// Fig. 8 shapes: network time drops sharply; the app server's SHARE of
	// total time rises under Sloth (lazy overhead) even though its
	// absolute time falls (fewer per-query driver round trips).
	if br.SlothNet >= br.OrigNet {
		t.Errorf("sloth net %v >= original net %v", br.SlothNet, br.OrigNet)
	}
	origTotal := br.OrigNet + br.OrigApp + br.OrigDB
	slothTotal := br.SlothNet + br.SlothApp + br.SlothDB
	origShare := float64(br.OrigApp) / float64(origTotal)
	slothShare := float64(br.SlothApp) / float64(slothTotal)
	if slothShare <= origShare {
		t.Errorf("sloth app share %.2f <= original %.2f (lazy overhead missing)", slothShare, origShare)
	}
	if br.SlothDB > br.OrigDB {
		t.Errorf("sloth db %v > original db %v", br.SlothDB, br.OrigDB)
	}
	if !strings.Contains(br.Format(), "Fig. 8") {
		t.Error("breakdown format header missing")
	}
}

func TestNetworkScalingIncreasesSpeedup(t *testing.T) {
	env := getEnv(t, Itracker)
	rep, err := NetworkScaling(env, []time.Duration{
		500 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	m05 := Median(rep.Speedups[0])
	m1 := Median(rep.Speedups[1])
	m10 := Median(rep.Speedups[2])
	if !(m05 < m1 && m1 < m10) {
		t.Fatalf("median speedups not increasing with RTT: %.2f, %.2f, %.2f", m05, m1, m10)
	}
	// Fig. 9: at 10 ms the speedups should reach ~3x somewhere.
	if Max(rep.Speedups[2]) < 2.5 {
		t.Errorf("max speedup at 10ms = %.2f, want >= 2.5", Max(rep.Speedups[2]))
	}
}

func TestDBScalingSlothScalesBetter(t *testing.T) {
	for _, app := range []AppID{Itracker, OpenMRS} {
		rep, err := DBScaling(app, []int{1, 4})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Rows) != 2 {
			t.Fatalf("rows = %d", len(rep.Rows))
		}
		small, big := rep.Rows[0], rep.Rows[1]
		if big.SlothTime <= small.SlothTime {
			t.Errorf("%v: sloth time did not grow with data (%v -> %v)", app, small.SlothTime, big.SlothTime)
		}
		// Sloth's advantage should grow (or at least hold) with size.
		sSmall := float64(small.OrigTime) / float64(small.SlothTime)
		sBig := float64(big.OrigTime) / float64(big.SlothTime)
		if sBig < sSmall*0.8 {
			t.Errorf("%v: speedup shrank with scale: %.2f -> %.2f", app, sSmall, sBig)
		}
		if app == OpenMRS && big.SlothBatch <= small.SlothBatch {
			t.Errorf("max batch did not grow with observations: %d -> %d", small.SlothBatch, big.SlothBatch)
		}
	}
}

// TestThroughputShape: Fig. 7 from the closed-loop replay. Sloth serves
// more pages per second than the original at every client count; neither
// curve beats the web host's cores running the pages' app time back to
// back, and both end within 0.1 % of that bound (the web CPU is the
// bottleneck); both curves rise to their plateau and never decline; and
// Sloth gets within 95 % of its peak at no more clients than the original.
// The thresholds are the measured report's (testdata/fig7.txt): peak ratio
// 1.13x, both curves within 0.05 % of their bound at 64 clients.
func TestThroughputShape(t *testing.T) {
	rep, err := Throughput()
	if err != nil {
		t.Fatal(err)
	}
	env := getEnv(t, OpenMRS)
	bound := func(mode orm.Mode) float64 {
		sum, err := env.suiteSum(mode, querystore.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return driver.WebLanes / (sum.AppTime.Seconds() / float64(len(env.Pages())))
	}
	curves := []struct {
		name  string
		rows  []ConcurrencyRow
		bound float64
	}{{"original", rep.Orig, bound(orm.ModeOriginal)}, {"sloth", rep.Sloth, bound(orm.ModeSloth)}}
	for i, o := range rep.Orig {
		if s := rep.Sloth[i]; s.Rate <= o.Rate {
			t.Errorf("x%d: sloth %.1f p/s, original %.1f", o.Sessions, s.Rate, o.Rate)
		}
	}
	for _, c := range curves {
		for i, row := range c.rows {
			if row.Rate > c.bound {
				t.Errorf("%s x%d: %.2f p/s beats the %d-core bound %.2f", c.name, row.Sessions, row.Rate, driver.WebLanes, c.bound)
			}
			if i > 0 && row.Rate < c.rows[i-1].Rate {
				t.Errorf("%s declines: x%d %.2f p/s after %.2f", c.name, row.Sessions, row.Rate, c.rows[i-1].Rate)
			}
		}
		if last := c.rows[len(c.rows)-1]; last.Rate < 0.999*c.bound {
			t.Errorf("%s plateaus at %.2f p/s, below 99.9%% of the %d-core bound %.2f", c.name, last.Rate, driver.WebLanes, c.bound)
		}
	}
	orig, origAt := peak(rep.Orig)
	sloth, slothAt := peak(rep.Sloth)
	if ratio := sloth / orig; ratio < 1.12 {
		t.Errorf("peak ratio %.3f, want >= 1.12", ratio)
	}
	if slothAt > origAt {
		t.Errorf("sloth within 95%% of its peak at %d clients, original at %d", slothAt, origAt)
	}
}

func TestPersistentMethodsTable(t *testing.T) {
	rep := PersistentMethods()
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		frac := float64(row.Persistent) / float64(row.Persistent+row.NonPersistent)
		if frac < 0.6 || frac > 0.95 {
			t.Errorf("%s persistent fraction %.2f out of band", row.App, frac)
		}
	}
	if rep.Rows[0].Persistent+rep.Rows[0].NonPersistent != 9713 {
		t.Errorf("OpenMRS total = %d, want 9713", rep.Rows[0].Persistent+rep.Rows[0].NonPersistent)
	}
}

func TestOptimizationAblationMonotone(t *testing.T) {
	rep, err := OptimizationAblation(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 4 {
		t.Fatalf("points = %d", len(rep.Points))
	}
	// Fig. 12: every added optimization must not hurt, and the full set
	// must win clearly over noopt.
	for i := 1; i < len(rep.Points); i++ {
		if rep.Points[i].Time > rep.Points[i-1].Time {
			t.Errorf("config %s slower than %s: %v > %v",
				rep.Points[i].Label, rep.Points[i-1].Label, rep.Points[i].Time, rep.Points[i-1].Time)
		}
	}
	first, last := rep.Points[0], rep.Points[len(rep.Points)-1]
	if float64(first.Time)/float64(last.Time) < 1.2 {
		t.Errorf("full optimizations only %.2fx over noopt", float64(first.Time)/float64(last.Time))
	}
	if last.ThunkAllocs >= first.ThunkAllocs {
		t.Errorf("optimizations did not reduce thunk allocations: %d -> %d", first.ThunkAllocs, last.ThunkAllocs)
	}
}

func TestOverheadSmall(t *testing.T) {
	rep, err := Overhead(30)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 8 {
		t.Fatalf("rows = %d, want 8 (5 TPC-C + 3 TPC-W)", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.Original <= 0 || row.Sloth <= 0 {
			t.Errorf("%s %s: zero duration", row.Workload, row.Name)
		}
	}
	if !strings.Contains(rep.Format(), "TPC-C") {
		t.Error("format missing TPC-C rows")
	}
}

func TestStoreAblation(t *testing.T) {
	env := getEnv(t, Itracker)
	rep, err := StoreAblation(env, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	def, noDedup, capped := rep.Rows[0], rep.Rows[1], rep.Rows[2]
	if noDedup.Queries < def.Queries {
		t.Errorf("dedup off issued fewer queries (%d < %d)", noDedup.Queries, def.Queries)
	}
	if capped.RoundTrips < def.RoundTrips {
		t.Errorf("batch cap reduced round trips (%d < %d)?", capped.RoundTrips, def.RoundTrips)
	}
}

func TestAppendixTableRenders(t *testing.T) {
	env := getEnv(t, Itracker)
	comps, err := env.RunSuite(500 * time.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	table := AppendixTable(Itracker, comps)
	if !strings.Contains(table, "portalhome.jsp") {
		t.Error("appendix table missing benchmark rows")
	}
	if len(strings.Split(table, "\n")) < 40 {
		t.Error("appendix table too short")
	}
}

func TestParallelBatchAblation(t *testing.T) {
	rep, err := ParallelBatchAblation(32)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ParallelDB >= rep.SerialDB {
		t.Fatalf("parallel %v >= serial %v; batch parallelism missing", rep.ParallelDB, rep.SerialDB)
	}
	// 32 point reads in parallel should cost far less than 32 serial ones.
	if float64(rep.SerialDB)/float64(rep.ParallelDB) < 4 {
		t.Errorf("parallel advantage only %.1fx", float64(rep.SerialDB)/float64(rep.ParallelDB))
	}
	if !strings.Contains(rep.Format(), "parallel") {
		t.Error("format missing content")
	}
}
