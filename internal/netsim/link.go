package netsim

import (
	"fmt"
	"sync"
	"time"
)

// Link models the network path between the application server and the
// database server: a round-trip latency fixed at NewLink. The paper's
// links are latency-dominated — payloads are small next to the RTT — so a
// trip costs the RTT whatever it carries; the byte counters record the
// payloads without pricing them. Every database interaction in the
// reproduction flows through a Link, so the link's counters are the ground
// truth for the paper's round-trip metrics (Figs. 5b, 6b) and for the
// network share of the time breakdown (Fig. 8).
type Link struct {
	clock Clock
	rtt   time.Duration

	// mu guards the counters; the clock and the RTT never change.
	mu         sync.Mutex
	roundTrips int64
	bytesSent  int64
	bytesRecv  int64
	timeouts   int64
	netTime    time.Duration
}

// LinkFault is the failure hook a caller hands to TripFault: consulted
// once per round trip with the trip's virtual start time. A non-nil error
// makes the trip fail after `delay` of virtual time instead of completing
// — the deterministic fault plane (internal/faults) implements it with
// seeded, time-keyed timeout rolls.
type LinkFault interface {
	LinkFault(at time.Duration) (delay time.Duration, err error)
}

// LinkStats is a snapshot of a link's accounting counters.
type LinkStats struct {
	RoundTrips int64
	BytesSent  int64
	BytesRecv  int64
	// Timeouts counts round trips that failed at the link (TripFault).
	Timeouts int64
	// NetTime is the total virtual time spent traversing the link,
	// including the time wasted by timed-out trips.
	NetTime time.Duration
}

// NewLink creates a link with the given round-trip latency. The paper's
// configurations are 0.5ms (same data center), 1ms, and 10ms (wide area);
// the network scaling experiment (Fig. 9) builds one link per RTT.
func NewLink(clock Clock, rtt time.Duration) *Link {
	return &Link{clock: clock, rtt: rtt}
}

// RTT reports the link's round-trip latency.
func (l *Link) RTT() time.Duration { return l.rtt }

// Clock returns the clock this link advances on round trips. The dispatch
// layer uses it to pay deferred network time on the session's timeline.
func (l *Link) Clock() Clock { return l.clock }

// TripFault consults fault for a round trip starting at the given virtual
// time. On a fault it charges the wasted delay to the link's net-time
// accounting, bumps the timeout counter, and returns the delay plus the
// injected error; the caller decides whether to advance its timeline and
// whether to retry. With no hook (or no fault) it returns (0, nil).
func (l *Link) TripFault(fault LinkFault, at time.Duration) (time.Duration, error) {
	if fault == nil {
		return 0, nil
	}
	delay, err := fault.LinkFault(at)
	if err == nil {
		return 0, nil
	}
	l.mu.Lock()
	l.timeouts++
	l.netTime += delay
	l.mu.Unlock()
	return delay, err
}

// Charge records one round trip's counters and returns its cost WITHOUT
// advancing the clock. Deferred dispatch strategies (async and shared
// batching) use it so the time of an in-flight round trip is paid on the
// session's timeline only when — and if — the session actually waits.
func (l *Link) Charge(reqBytes, respBytes int) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.roundTrips++
	l.bytesSent += int64(reqBytes)
	l.bytesRecv += int64(respBytes)
	l.netTime += l.rtt
	return l.rtt
}

// RoundTrip charges one full round trip carrying reqBytes of request payload
// and respBytes of response payload, advancing the clock accordingly. It
// returns the time charged.
func (l *Link) RoundTrip(reqBytes, respBytes int) time.Duration {
	cost := l.Charge(reqBytes, respBytes)
	l.clock.Advance(cost)
	return cost
}

// Stats returns a snapshot of the link counters.
func (l *Link) Stats() LinkStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LinkStats{
		RoundTrips: l.roundTrips,
		BytesSent:  l.bytesSent,
		BytesRecv:  l.bytesRecv,
		Timeouts:   l.timeouts,
		NetTime:    l.netTime,
	}
}

// String summarizes the link's RTT and counters.
func (l *Link) String() string {
	s := l.Stats()
	return fmt.Sprintf("link{rtt=%v trips=%d sent=%dB recv=%dB}", l.RTT(), s.RoundTrips, s.BytesSent, s.BytesRecv)
}
