package bench

import (
	"testing"
	"time"

	"repro/internal/orm"
	"repro/internal/sqldb/plan"
	"repro/internal/sqldb/sqlparse"
)

// TestParseOncePerDistinctSQL is the parse-once acceptance test (ISSUE 5):
// over a full golden-suite replay — both page modes, merge optimizer on, so
// the engine, the driver cost loop, and the merge analyzer all run —
// every parser invocation must be a parse-interner miss (no consumer
// bypasses the interner), and a repeat replay must not invoke the parser
// at all (each distinct SQL text parses exactly once per run).
func TestParseOncePerDistinctSQL(t *testing.T) {
	if !plan.CachingEnabled() {
		t.Fatal("plan caching unexpectedly disabled")
	}
	env, err := NewEnv(Itracker, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	env.StoreCfg = MergeConfig()
	replay := func() {
		t.Helper()
		for _, page := range env.Pages() {
			for _, mode := range []orm.Mode{orm.ModeOriginal, orm.ModeSloth} {
				if _, _, err := env.LoadPageHTML(page, mode, 500*time.Microsecond, env.StoreCfg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	calls0 := sqlparse.ParseCalls()
	miss0 := plan.ParseCacheStats().Misses
	replay()
	callsDelta := sqlparse.ParseCalls() - calls0
	missDelta := plan.ParseCacheStats().Misses - miss0
	if callsDelta != missDelta {
		t.Errorf("replay invoked the parser %d times but the interner missed %d times: some path bypasses ParseCached", callsDelta, missDelta)
	}

	calls1 := sqlparse.ParseCalls()
	replay()
	if d := sqlparse.ParseCalls() - calls1; d != 0 {
		t.Errorf("repeat replay invoked the parser %d times, want 0 (every text already interned)", d)
	}
}
