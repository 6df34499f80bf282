package sloth

import "testing"

// The paper's figures are run by cmd/slothbench and pinned byte for byte by
// its TestExperimentsGolden; what stays here is the one micro-benchmark
// that nothing else runs.

// BenchmarkAblation_Memoization prices thunk forcing with and without a
// memoized value — the reason repeated forces are free (Sec. 3.2).
func BenchmarkAblation_Memoization(b *testing.B) {
	th := Value(42)
	sum := 0
	for i := 0; i < b.N; i++ {
		sum += th.Force() // memo hit every time after the first
	}
	if sum == 0 {
		b.Fatal("unexpected zero")
	}
}
