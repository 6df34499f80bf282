package lazyc

import (
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
)

// fig12Rig is the deployment OptimizationAblation gives each page load: the
// eight-row table, a 500 us link and one virtual clock for link, server and
// thunk costs.
func fig12Rig(t *testing.T) (*driver.Conn, *netsim.Link, *netsim.VirtualClock) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	db := engine.New()
	s := db.NewSession()
	for _, sql := range []string{
		"CREATE TABLE t (id INT PRIMARY KEY, v INT, name TEXT)",
		"INSERT INTO t (id, v, name) VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, 'c'), (4, 40, 'd'), (5, 50, 'e'), (6, 60, 'f'), (7, 70, 'g'), (8, 80, 'h')",
	} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	link := netsim.NewLink(clock, 500*time.Microsecond)
	return driver.NewServer(db, clock, driver.DefaultCostModel()).Connect(link), link, clock
}

// kernelPin is one (page, option set) cell: every counter Fig. 12 is built
// from.
type kernelPin struct {
	stats LazyStats
	trips int64
	time  time.Duration
}

// TestKernelCountersPinned holds the kernel benchmark pages to the counts
// measured before the standard-semantics walkers were merged (PR 18): which
// walker runs a piece of code must not change what it allocates, forces,
// queries or costs. Summed over the pages and multiplied by the experiment's
// 25 repeats, each column is a Fig. 12 row.
func TestKernelCountersPinned(t *testing.T) {
	pinned := []struct {
		page, output string
		std          StdStats
		lazy         [4]kernelPin // indexed like ladder
	}{
		{"dashboard", "3265\n", StdStats{2, 428}, [4]kernelPin{
			{LazyStats{112, 158, 2, 0, 0}, 1, 3449600},
			{LazyStats{72, 110, 2, 8, 0}, 1, 2457600},
			{LazyStats{64, 110, 2, 8, 8}, 1, 2297600},
			{LazyStats{65, 111, 2, 8, 9}, 1, 2321600},
		}},
		{"detail", "70\n", StdStats{2, 81}, [4]kernelPin{
			{LazyStats{20, 27, 2, 0, 0}, 1, 1080700},
			{LazyStats{11, 12, 2, 3, 0}, 2, 1401400},
			{LazyStats{11, 12, 2, 3, 1}, 1, 840700},
			{LazyStats{11, 12, 2, 3, 2}, 1, 840700},
		}},
		{"listing", "40191\n", StdStats{4, 81}, [4]kernelPin{
			{LazyStats{22, 25, 4, 0, 0}, 1, 1124700},
			{LazyStats{18, 18, 4, 1, 0}, 1, 1016700},
			{LazyStats{17, 17, 4, 1, 1}, 1, 992700},
			{LazyStats{17, 17, 4, 1, 2}, 1, 992700},
		}},
		{"report", "4462\n", StdStats{2, 320}, [4]kernelPin{
			{LazyStats{81, 119, 2, 0, 0}, 2, 3234300},
			{LazyStats{57, 83, 2, 6, 0}, 2, 2610300},
			{LazyStats{57, 83, 2, 6, 0}, 2, 2610300},
			{LazyStats{11, 17, 2, 6, 2}, 1, 865600},
		}},
	}
	pages := BenchmarkPageSources()
	if len(pages) != len(pinned) {
		t.Fatalf("%d benchmark pages, %d pinned", len(pages), len(pinned))
	}
	var sums [4]kernelPin
	for _, p := range pinned {
		prog := MustParse(pages[p.page])
		Simplify(prog)
		conn, _, _ := fig12Rig(t)
		std := NewStd(prog, conn)
		if err := std.Run(); err != nil {
			t.Fatalf("%s std: %v", p.page, err)
		}
		if std.Output() != p.output || std.Stats() != p.std {
			t.Errorf("%s std: output %q stats %+v, want %q %+v", p.page, std.Output(), std.Stats(), p.output, p.std)
		}
		for i, opts := range ladder {
			conn, link, clock := fig12Rig(t)
			in := NewLazy(prog, querystore.New(conn, querystore.Config{}), opts, clock, DefaultCostModel())
			if err := in.Run(); err != nil {
				t.Fatalf("%s opts %+v: %v", p.page, opts, err)
			}
			got := kernelPin{in.Stats(), link.Stats().RoundTrips, clock.Now()}
			if in.Output() != p.output || got != p.lazy[i] {
				t.Errorf("%s opts %+v: output %q counters %+v, want %q %+v", p.page, opts, in.Output(), got, p.output, p.lazy[i])
			}
			sums[i].stats.ThunkAllocs += got.stats.ThunkAllocs
			sums[i].trips += got.trips
			sums[i].time += got.time
		}
	}
	// The Fig. 12 rows as slothbench prints them: runtime, thunk allocs,
	// round trips, x25.
	rows := [4]struct {
		time   time.Duration
		allocs int64
		trips  int64
	}{
		{222232500, 5875, 125},
		{187150000, 3950, 150},
		{168532500, 3725, 125},
		{125515000, 2600, 100},
	}
	for i, want := range rows {
		if 25*sums[i].time != want.time || 25*sums[i].stats.ThunkAllocs != want.allocs || 25*sums[i].trips != want.trips {
			t.Errorf("Fig. 12 row %d: %v / %d / %d, want %v / %d / %d", i,
				25*sums[i].time, 25*sums[i].stats.ThunkAllocs, 25*sums[i].trips, want.time, want.allocs, want.trips)
		}
	}
}
