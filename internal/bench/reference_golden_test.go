package bench

import (
	"testing"
	"time"

	"repro/internal/orm"
	"repro/internal/sqldb/plan"
)

// TestPlanCacheOffGolden pins a "same behaviour, different machinery" pair on every
// golden page load of both applications (each page in original and Sloth
// mode): the prepared-plan caches on versus plan.SetCaching(false). The two
// must agree byte for byte on the HTML and exactly on the virtual-clock
// metrics.

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
	env, err := NewEnv(id, 1, 1)
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
