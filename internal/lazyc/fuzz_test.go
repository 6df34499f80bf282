package lazyc

import (
	"sort"
	"testing"

	"repro/internal/querystore"
)

// FuzzLazyc is the strict-vs-lazy soundness fuzzer, the paper's central
// claim driven by mutation: for any program the kernel-language parser
// accepts, if strict (standard) interpretation succeeds then lazy
// interpretation must succeed under every optimization level and print
// byte-identical output. The reverse is deliberately not required —
// laziness legitimately skips erroring dead code a strict evaluator
// would trip over. When strict fails or diverges the lazy interpreters
// still run, and must merely return: every failure is an error, never a
// panic or a stack overflow.
//
// Seeds are the benchmark pages, the arity and recursion programs the
// narrower fuzzer missed, and the short-circuit and break/continue programs
// of controlPrograms; CI adds a short -fuzz budget on top of the
// seed-corpus run every `go test` performs.
func FuzzLazyc(f *testing.F) {
	pages := BenchmarkPageSources()
	names := make([]string, 0, len(pages))
	for name := range pages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(pages[name])
	}
	f.Add(`print(1 + 2);`)
	f.Add(arityFewProgram)
	f.Add(arityManyProgram)
	f.Add(recursionProgram)
	for _, c := range controlPrograms {
		f.Add(c.src)
	}

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return // keep the interpreter step budgets meaningful
		}
		prog, err := ParseProgram(src)
		if err != nil {
			return // rejecting garbage is correct; only panics are bugs
		}
		Simplify(prog)
		stdConn, _ := rig(t, 0)
		std := NewStd(prog, stdConn)
		std.maxSteps = 100_000
		stdErr := std.Run()
		for _, opts := range ladder {
			conn, _ := rig(t, 0)
			store := querystore.New(conn, querystore.Config{})
			lazy := NewLazy(prog, store, opts, nil, CostModel{})
			if stdErr != nil {
				// Strict fails or diverges: laziness has nothing to match,
				// but it must come back within a tight budget.
				lazy.maxSteps = 100_000
				_ = lazy.Run() // either outcome is fine; a panic fails the run
				continue
			}
			// Thunk bookkeeping costs steps; give lazy ample headroom so a
			// soundness failure is never really a budget artifact.
			lazy.maxSteps = 2_000_000
			if err := lazy.Run(); err != nil {
				t.Fatalf("opts %+v: strict succeeded but lazy failed: %v\nprogram:\n%s", opts, err, src)
			}
			if std.Output() != lazy.Output() {
				t.Fatalf("opts %+v: output mismatch\nstd:  %q\nlazy: %q\nprogram:\n%s", opts, std.Output(), lazy.Output(), src)
			}
		}
	})
}
