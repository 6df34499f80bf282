//go:build !race

package merge_test

const raceEnabled = false
