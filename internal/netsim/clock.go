// Package netsim provides a simulated network substrate for the Sloth
// reproduction. The paper's experiments are functions of round-trip counts
// multiplied by link latency plus server-side costs; netsim reproduces that
// arithmetic on a virtual clock so the full benchmark suite runs
// deterministically and in seconds rather than hours.
//
// Time passes on a VirtualClock, which advances instantaneously; Clock stays
// an interface so a consumer never depends on that.
package netsim

import (
	"sync"
	"time"
)

// Clock abstracts the passage of time so experiments run on simulated time.
type Clock interface {
	// Now returns the current time as an offset from the clock's epoch.
	Now() time.Duration
	// Advance moves the clock forward by d.
	Advance(d time.Duration)
}

// VirtualClock is a thread-safe simulated clock. Advancing it is free; Now
// reports the accumulated virtual time. The zero value is ready to use.
type VirtualClock struct {
	mu  sync.Mutex
	now time.Duration
}

// NewVirtualClock returns a virtual clock starting at zero.
func NewVirtualClock() *VirtualClock { return &VirtualClock{} }

// Now reports the accumulated virtual time.
func (c *VirtualClock) Now() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

// Advance moves virtual time forward by d. Negative durations are ignored.
func (c *VirtualClock) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// AdvanceTo advances c to the absolute virtual time target, returning the
// amount waited (zero when target is already in the past). It is the
// "block until completion" primitive of deferred dispatch: a session that
// kept computing past a batch's completion time waits nothing.
//
// The read-then-advance pair is not atomic, so a clock must have a single
// advancing goroutine (per-session clocks do).
func AdvanceTo(c Clock, target time.Duration) time.Duration {
	now := c.Now()
	if target <= now {
		return 0
	}
	c.Advance(target - now)
	return target - now
}
