//go:build !race

package querystore

const raceEnabled = false
