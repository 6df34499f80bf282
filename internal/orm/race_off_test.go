//go:build !race

package orm

const raceEnabled = false
