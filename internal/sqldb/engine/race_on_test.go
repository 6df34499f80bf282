//go:build race

package engine

// raceEnabled: the race detector's instrumentation adds allocations of its
// own, so allocation counts are not pinned under it.
const raceEnabled = true
