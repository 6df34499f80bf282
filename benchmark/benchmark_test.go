package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := sortedCopy([]int64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100})
	for _, tc := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.95, 100}, {0.9, 90}, {0.01, 10}, {1, 100}, {0.51, 60}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %d", got)
	}
	if got := medianFloat([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianFloat even = %v, want 2.5", got)
	}
	if got := medianFloat([]float64{9, 1, 5}); got != 5 {
		t.Errorf("medianFloat odd = %v, want 5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1, op: 0, name: spanOp},          // 0: root
		{start: 10, end: 30, parent: 0, op: 0, name: spanSubmit},       // 1
		{start: 15, end: 25, parent: 1, op: 0, name: spanRewrite},      // 2: nested in 1
		{start: 40, end: 70, parent: 0, op: 0, name: spanWait},         // 3
		{start: 60, end: 90, parent: 0, op: 0, name: spanRewrite},      // 4: a worker's span overlapping 3
		{start: 95, end: 120, parent: 0, op: 0, name: spanDemux},       // 5: sticks out of the root
		{start: 200, end: 210, parent: -1, op: 1, name: spanOp},        // 6: childless root
		{start: 65, end: 66, parent: 0, op: 0, name: spanExecRead},     // 7: logged late, inside 3 and 4
		{start: 300, end: 400, parent: -1, op: 2, name: spanOp},        // 8
		{start: 350, end: 360, parent: 8, op: 2, name: spanExecWrite},  // 9: logged before its earlier sibling
		{start: 310, end: 320, parent: 8, op: 2, name: spanExecRead},   // 10
		{start: 300, end: 400, parent: 8, op: 2, name: spanSubmit},     // 11: covers the whole parent
		{start: 0, end: 0, parent: -1, op: 3, name: spanOp},            // 12: empty
		{start: 500, end: 600, parent: -1, op: 4, name: spanOp},        // 13
		{start: 500, end: 550, parent: 13, op: 4, name: spanSubmit},    // 14
		{start: 550, end: 600, parent: 13, op: 4, name: spanWait},      // 15: touching siblings
		{start: 510, end: 520, parent: 14, op: 4, name: spanRewrite},   // 16
		{start: 520, end: 530, parent: 14, op: 4, name: spanDemux},     // 17
		{start: 1000, end: 1010, parent: -1, op: 5, name: spanOp},      // 18
		{start: 990, end: 1005, parent: 18, op: 5, name: spanExecRead}, // 19: starts before its parent
	}
	want := map[int]int64{
		0:  100 - (20 + 30 + 20 + 5), // children cover [10,30] [40,90] [95,100]
		1:  10,
		2:  10,
		3:  30,
		6:  10,
		8:  0,
		12: 0,
		13: 0,
		14: 30,
		18: 5,
	}
	self := selfTimes(spans)
	for i, w := range want {
		if self[i] != w {
			t.Errorf("span %d self = %d, want %d", i, self[i], w)
		}
	}
	// Where children nest without overlap, the self times of an op's spans
	// sum to the op's wall time.
	var sum int64
	for _, i := range []int{13, 14, 15, 16, 17} {
		sum += self[i]
	}
	if sum != 100 {
		t.Errorf("self times of op 4 sum to %d, want its wall 100", sum)
	}
	agg := aggregate(spans)
	if agg[spanOp].count != 6 || agg[spanOp].dur != 100+10+100+0+100+10 {
		t.Errorf("aggregate op = %+v", agg[spanOp])
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              *float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if n := len(doc.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalog; want 2..8 and equal", n, len(workloads))
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 || n != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalog; want 1..16 and equal", n, len(endToEnd))
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 || n != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalog; want 1..128 and equal", n, len(perLayer))
	}
	nameRe := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	name := func(n string) {
		t.Helper()
		if !nameRe.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRe)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range doc.Workloads {
		name(w.Name)
		if w != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %+v, catalog %+v", i, w, workloads[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if _, ok := pageSpecs[w.Name]; !ok && w.Name != wlOLTPSloth {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	hasSetup := false
	for i, m := range doc.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Bound == nil || m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || *m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalog %+v", i, m, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if !unitRe.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s (s, lower)")
	}
	for i, m := range doc.PerLayer {
		name(m.Name)
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalog %+v", i, m, d)
		}
		if !unitRe.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
	}
}

// inexact lists the per-layer metrics that read the host clock or a
// process-wide gauge; every other one is a count and must repeat exactly on
// a single-client workload.
func inexact(name string) bool {
	switch {
	case strings.HasSuffix(name, "_us_per_op"), strings.HasSuffix(name, "_us_per_batch"),
		strings.HasSuffix(name, "_us_per_stmt"), strings.HasSuffix(name, "_ns_per_stmt"),
		strings.HasSuffix(name, "_ns_per_row"), strings.HasSuffix(name, "_ns"),
		strings.HasSuffix(name, "_growth"), strings.HasSuffix(name, "_pct"),
		strings.HasPrefix(name, "runtime."), strings.HasPrefix(name, "bench.host_op_"):
		return true
	}
	switch name {
	case "dispatch.busy_share", "driver.worker_wall_share", "sqlparse.distinct_texts":
		return true
	}
	return false
}

// smoke runs one pass of a workload in one mode and returns its result.
func smoke(t *testing.T, workload string, traced bool) result {
	t.Helper()
	cfg := config{workload: workload, seed: 1, lim: limit{passes: 1}, rounds: 1}
	var (
		res result
		err error
	)
	if traced {
		res, err = runTraced(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestSmoke runs every workload for one pass, untraced and traced: every
// catalog metric is emitted and no other, and on the single-client
// workloads a second run yields identical counters and virtual times.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("seeds eight deployments per workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			first := smoke(t, w.Name, traced)
			if len(first.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics emitted, catalog has %d", w.Name, traced, len(first.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := first.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", w.Name, traced, d.Name, m.Unit, d.Unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if w.Name == wlSessionsRW {
				continue // two free-running clients: occupancy placement follows host order
			}
			second := smoke(t, w.Name, traced)
			for _, d := range defs {
				exact := strings.HasPrefix(d.Name, "virt_") || (traced && !inexact(d.Name))
				if exact && first.Metrics[d.Name] != second.Metrics[d.Name] {
					t.Errorf("%s traced=%v: %s = %v then %v, want identical", w.Name, traced, d.Name,
						first.Metrics[d.Name].Value, second.Metrics[d.Name].Value)
				}
			}
		}
	}
}

// TestSeedChangesInputs: another seed gives another transaction order and
// the same seed the same; every deck holds the standard mix.
func TestSeedChangesInputs(t *testing.T) {
	deal := func(seed int64) string {
		side, err := newOLTPSide(seed, false, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		side.shuffle()
		var sb strings.Builder
		var n [nTx]int
		for _, tx := range side.deck {
			sb.WriteByte(byte('0' + tx))
			n[tx]++
		}
		if n != txCards || len(side.deck) != tpccPerPass {
			t.Errorf("deck holds %v, want %v", n, txCards)
		}
		return sb.String()
	}
	if a, b := deal(1), deal(1); a != b {
		t.Errorf("seed 1 dealt %s then %s", a, b)
	}
	if a, b := deal(1), deal(2); a == b {
		t.Errorf("seeds 1 and 2 dealt the same order %s", a)
	}
}
