package main

import "time"

// hostNow is the benchmark's only host-clock read. Everything the program
// under test does runs on virtual clocks; host time is what this package
// exists to measure, so every wall-time figure it reports is a difference
// of two hostNow values.
func hostNow() time.Time {
	//slothvet:allow wallclock(benchmark measures host time by design)
	return time.Now()
}
