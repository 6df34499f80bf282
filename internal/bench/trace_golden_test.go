package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/obs"
	"repro/internal/orm"
)

// This file is the golden test for the tracer: a page's span tree — virtual
// timestamps included — must be byte-identical across repeated runs and
// across DB worker counts, and tracing must never change what a page
// renders. The waterfall form already excludes exporter tracks (worker
// placement) and host durations, so any difference here is a real
// determinism regression in the dispatch pipeline or the instrumentation.

var traceGoldenPages = []struct {
	id   AppID
	page string
}{
	{Itracker, "module-projects/view issue.jsp"},
	{OpenMRS, "patientDashboardForm.jsp"},
}

// tracedWaterfall loads one Sloth-mode page with tracing on and returns the
// page root's waterfall plus the rendered HTML.
func tracedWaterfall(t *testing.T, id AppID, page string, kind dispatch.Kind, workers int) (string, string) {
	t.Helper()
	env, err := NewEnv(id, 1, 1)
	if err != nil {
		t.Fatalf("NewEnv(%v): %v", id, err)
	}
	env.Srv.SetWorkers(workers)
	cfg := env.StoreCfg
	cfg.Trace = obs.NewTracer()
	cfg.Dispatch = kind
	html, _, err := env.LoadPageHTML(page, orm.ModeSloth, 500*time.Microsecond, cfg)
	if err != nil {
		t.Fatalf("%v %q (%v, workers=%d): %v", id, page, kind, workers, err)
	}
	roots := cfg.Trace.Roots()
	if len(roots) == 0 {
		t.Fatalf("%v %q: no spans recorded", id, page)
	}
	// The page root is recorded first, on the session goroutine, before any
	// flush can reach a worker.
	return cfg.Trace.Waterfall(roots[0]), html
}

// untracedHTML is the baseline render for the trace/no-trace cross-check.
func untracedHTML(t *testing.T, id AppID, page string, kind dispatch.Kind, workers int) string {
	t.Helper()
	env, err := NewEnv(id, 1, 1)
	if err != nil {
		t.Fatalf("NewEnv(%v): %v", id, err)
	}
	env.Srv.SetWorkers(workers)
	cfg := env.StoreCfg
	cfg.Dispatch = kind
	html, _, err := env.LoadPageHTML(page, orm.ModeSloth, 500*time.Microsecond, cfg)
	if err != nil {
		t.Fatalf("%v %q (%v, workers=%d): %v", id, page, kind, workers, err)
	}
	return html
}

// TestTraceGoldenDeterminism asserts the span tree of each golden page is
// identical across two runs and across workers=1 vs workers=4, for every
// dispatch strategy, and that tracing does not change the rendered bytes.
func TestTraceGoldenDeterminism(t *testing.T) {
	for _, tc := range traceGoldenPages {
		for _, kind := range []dispatch.Kind{dispatch.KindSync, dispatch.KindAsync} {
			w1a, html1 := tracedWaterfall(t, tc.id, tc.page, kind, 1)
			w1b, _ := tracedWaterfall(t, tc.id, tc.page, kind, 1)
			if w1a != w1b {
				t.Errorf("%v %q (%v): waterfall differs across two identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s",
					tc.id, tc.page, kind, w1a, w1b)
			}
			w4, html4 := tracedWaterfall(t, tc.id, tc.page, kind, 4)
			if w1a != w4 {
				t.Errorf("%v %q (%v): waterfall differs between workers=1 and workers=4:\n--- w1 ---\n%s--- w4 ---\n%s",
					tc.id, tc.page, kind, w1a, w4)
			}
			if base := untracedHTML(t, tc.id, tc.page, kind, 1); html1 != base {
				t.Errorf("%v %q (%v): tracing changed the rendered page", tc.id, tc.page, kind)
			}
			if base := untracedHTML(t, tc.id, tc.page, kind, 4); html4 != base {
				t.Errorf("%v %q (%v, workers=4): tracing changed the rendered page", tc.id, tc.page, kind)
			}
		}
	}
}

// TestTraceWaterfallShape sanity-checks the tree: the page root carries the
// mode annotation, the controller/view spans nest under it, and a Sloth
// load records at least one flush with a db execution under it.
func TestTraceWaterfallShape(t *testing.T) {
	w, _ := tracedWaterfall(t, Itracker, "module-projects/view issue.jsp", dispatch.KindSync, 1)
	for _, want := range []string{
		"page module-projects/view issue.jsp [",
		"{mode=sloth}",
		"app controller [",
		"app view [",
		"flush [",
		"exec batch [",
		"db batch [",
		"net link [",
	} {
		if !strings.Contains(w, want) {
			t.Errorf("waterfall missing %q:\n%s", want, w)
		}
	}
	// Waterfalls are golden: they must not leak worker placement.
	if strings.Contains(w, "worker") {
		t.Errorf("waterfall leaks worker placement:\n%s", w)
	}
}
