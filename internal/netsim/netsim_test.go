package netsim

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestVirtualClockStartsAtZero(t *testing.T) {
	c := NewVirtualClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("Now() = %v, want 0", got)
	}
}

func TestVirtualClockAdvance(t *testing.T) {
	c := NewVirtualClock()
	c.Advance(3 * time.Millisecond)
	c.Advance(2 * time.Millisecond)
	if got := c.Now(); got != 5*time.Millisecond {
		t.Fatalf("Now() = %v, want 5ms", got)
	}
}

func TestVirtualClockIgnoresNegative(t *testing.T) {
	c := NewVirtualClock()
	c.Advance(time.Millisecond)
	c.Advance(-time.Second)
	if got := c.Now(); got != time.Millisecond {
		t.Fatalf("Now() = %v, want 1ms", got)
	}
}

func TestVirtualClockConcurrentAdvance(t *testing.T) {
	c := NewVirtualClock()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	want := time.Duration(workers*perWorker) * time.Microsecond
	if got := c.Now(); got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestLinkRoundTripChargesRTT(t *testing.T) {
	c := NewVirtualClock()
	l := NewLink(c, 500*time.Microsecond)
	cost := l.Charge(100, 200)
	if cost != 500*time.Microsecond {
		t.Fatalf("Charge cost = %v, want 500µs", cost)
	}
	// The link prices the trip; the session that waits for it pays.
	if got := c.Now(); got != 0 {
		t.Fatalf("clock = %v, want 0: Charge advanced it", got)
	}
}

func TestLinkStatsAccumulate(t *testing.T) {
	c := NewVirtualClock()
	l := NewLink(c, time.Millisecond)
	l.Charge(10, 20)
	l.Charge(1, 2)
	s := l.Stats()
	if s.RoundTrips != 2 {
		t.Errorf("RoundTrips = %d, want 2", s.RoundTrips)
	}
	if s.BytesSent != 11 {
		t.Errorf("BytesSent = %d, want 11", s.BytesSent)
	}
	if s.BytesRecv != 22 {
		t.Errorf("BytesRecv = %d, want 22", s.BytesRecv)
	}
	if s.NetTime != 2*time.Millisecond {
		t.Errorf("NetTime = %v, want 2ms", s.NetTime)
	}
}

func TestLinkConcurrentRoundTrips(t *testing.T) {
	c := NewVirtualClock()
	l := NewLink(c, time.Microsecond)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 250; j++ {
				l.Charge(1, 1)
			}
		}()
	}
	wg.Wait()
	if s := l.Stats(); s.RoundTrips != 1000 {
		t.Fatalf("RoundTrips = %d, want 1000", s.RoundTrips)
	}
}

// faultEvery fails every trip whose start time is an exact multiple of its
// period, charging a fixed delay — a minimal LinkFault for hook testing.
type faultEvery struct {
	period time.Duration
	delay  time.Duration
	err    error
}

func (f faultEvery) LinkFault(at time.Duration) (time.Duration, error) {
	if f.period > 0 && at%f.period == 0 {
		return f.delay, f.err
	}
	return 0, nil
}

func TestLinkTripFault(t *testing.T) {
	c := NewVirtualClock()
	l := NewLink(c, time.Millisecond)
	if d, err := l.TripFault(nil, 0); d != 0 || err != nil {
		t.Fatalf("no hook: d=%v err=%v", d, err)
	}
	sentinel := fmt.Errorf("injected timeout")
	hook := faultEvery{period: 2 * time.Millisecond, delay: 3 * time.Millisecond, err: sentinel}
	if d, err := l.TripFault(hook, time.Millisecond); d != 0 || err != nil {
		t.Fatalf("clean trip: d=%v err=%v", d, err)
	}
	d, err := l.TripFault(hook, 2*time.Millisecond)
	if d != 3*time.Millisecond || err != sentinel {
		t.Fatalf("faulted trip: d=%v err=%v", d, err)
	}
	s := l.Stats()
	if s.Timeouts != 1 || s.NetTime != 3*time.Millisecond {
		t.Fatalf("stats after fault: %+v", s)
	}
	if d, err := l.TripFault(nil, 2*time.Millisecond); d != 0 || err != nil {
		t.Fatalf("no hook after a fault: d=%v err=%v", d, err)
	}
	if after := l.Stats(); after != s {
		t.Fatalf("a trip without a hook moved the stats: %+v -> %+v", s, after)
	}
}
