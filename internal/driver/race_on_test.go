//go:build race

package driver

// raceEnabled: the race detector's instrumentation allocates, so byte and
// allocation counts are not fixed under it.
const raceEnabled = true
