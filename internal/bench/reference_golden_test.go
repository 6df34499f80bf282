package bench

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/orm"
	"repro/internal/sqldb/plan"
)

// These tests pin two "same behaviour, different machinery" pairs on every
// golden page load of both applications (each page in original and Sloth
// mode): the prepared-plan caches on versus plan.SetCaching(false), and no
// tracer versus a tracer that is compiled in but disabled. Either pair must
// agree byte for byte on the HTML and exactly on the virtual-clock metrics.

// goldenLoad is everything observable about one page load.
type goldenLoad struct {
	html string
	m    PageMetrics
}

// loadSuite loads every page of env in both modes under env.StoreCfg.
func loadSuite(t *testing.T, env *Env) []goldenLoad {
	t.Helper()
	var out []goldenLoad
	for _, page := range env.Pages() {
		for _, mode := range []orm.Mode{orm.ModeOriginal, orm.ModeSloth} {
			html, m, err := env.LoadPageHTML(page, mode, 500*time.Microsecond, env.StoreCfg)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, goldenLoad{html, m})
		}
	}
	return out
}

// requireSameLoads fails on the first load whose HTML or metrics differ.
func requireSameLoads(t *testing.T, id AppID, what string, want, got []goldenLoad) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d loads vs %d %s", id, len(want), len(got), what)
	}
	for i := range want {
		if want[i].html != got[i].html {
			t.Fatalf("%s load %d %q renders differently %s\n--- reference ---\n%s\n--- %s ---\n%s",
				id, i, want[i].m.Page, what, want[i].html, what, got[i].html)
		}
		if want[i].m != got[i].m {
			t.Fatalf("%s load %d %q: metrics differ %s\nreference %+v\n%s %+v",
				id, i, want[i].m.Page, what, want[i].m, what, got[i].m)
		}
	}
}

// freshEnv builds a private environment (getEnv's are shared): both sides
// of a comparison start from the same history, under their own settings.
func freshEnv(t *testing.T, id AppID) *Env {
	t.Helper()
	env, err := NewEnv(id, 1)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestPlanCacheOffGolden: with the parse interner, every compiled-plan
// cache and the merge shape cache disabled, each load renders the same
// bytes and costs the same virtual time, round trips and statements.
func TestPlanCacheOffGolden(t *testing.T) {
	apps := []AppID{Itracker, OpenMRS}
	want := make([][]goldenLoad, len(apps))
	for i, id := range apps {
		want[i] = loadSuite(t, freshEnv(t, id))
	}
	defer plan.SetCaching(plan.SetCaching(false))
	for i, id := range apps {
		requireSameLoads(t, id, "cache-off", want[i], loadSuite(t, freshEnv(t, id)))
	}
}

// TestDisabledTracerGolden is "zero cost when disabled" as counts instead
// of a timing ratio: a tracer attached but switched off changes no byte and
// no virtual nanosecond, records no span, and a full Sloth-mode replay
// allocates what the tracer-free replay allocates — each instrumented site
// pays an atomic load, never an object. The replay's malloc count repeats
// to within ±2 in a plain build and a few dozen under -race (the race
// runtime allocates on its own account), so the bound is 1 % of the replay:
// 194 and 535 objects, where an enabled tracer records 3 327 and 9 105 spans
// — one object per site would overshoot it 17-fold.
func TestDisabledTracerGolden(t *testing.T) {
	for _, id := range []AppID{Itracker, OpenMRS} {
		plain, traced := freshEnv(t, id), freshEnv(t, id)
		tr := obs.NewTracer()
		tr.SetEnabled(false)
		traced.StoreCfg.Trace = tr

		requireSameLoads(t, id, "disabled-tracer", loadSuite(t, plain), loadSuite(t, traced))

		slothAllocs := func(env *Env) float64 {
			return testing.AllocsPerRun(1, func() {
				for _, page := range env.Pages() {
					if _, _, err := env.LoadPageHTML(page, orm.ModeSloth, 500*time.Microsecond, env.StoreCfg); err != nil {
						t.Fatal(err)
					}
				}
			})
		}
		base, got := slothAllocs(plain), slothAllocs(traced)
		if d := got - base; d > base/100 || d < -base/100 {
			t.Errorf("%s: Sloth replay allocates %.0f objects with a disabled tracer, %.0f without", id, got, base)
		}
		if n := tr.SpanCount(); n != 0 {
			t.Errorf("%s: disabled tracer recorded %d spans", id, n)
		}
	}
}
