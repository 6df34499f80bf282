//go:build race

package querystore

// raceEnabled: the race detector makes sync.Pool drop a share of what it is
// given, so allocation counts that rely on a pool are not fixed under it.
const raceEnabled = true
