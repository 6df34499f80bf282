package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestRollDeterminism is the plane's contract: the same (seed, site, salt,
// time) always draws the same value, different coordinates draw different
// ones, and the draws are sanely uniform.
func TestRollDeterminism(t *testing.T) {
	a := NewPlane(Config{Seed: 42})
	b := NewPlane(Config{Seed: 42})
	c := NewPlane(Config{Seed: 43})
	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * 37 * time.Microsecond
		if a.roll("exec", 3, at) != b.roll("exec", 3, at) {
			t.Fatalf("same seed diverged at %v", at)
		}
	}
	diff := 0
	for i := 0; i < 1000; i++ {
		at := time.Duration(i) * 37 * time.Microsecond
		if a.roll("exec", 3, at) != c.roll("exec", 3, at) {
			diff++
		}
	}
	if diff < 990 {
		t.Fatalf("different seeds agreed on %d/1000 rolls", 1000-diff)
	}
	// Uniformity sanity: the empirical rate of a 20%% roll over many
	// distinct instants should land near 20%%.
	hits := 0
	for i := 0; i < 10000; i++ {
		if a.roll("link", 0, time.Duration(i)*time.Microsecond) < 0.2 {
			hits++
		}
	}
	if hits < 1700 || hits > 2300 {
		t.Fatalf("20%% roll hit %d/10000", hits)
	}
}

// TestRollOrderIndependence: rolls are pure functions, so interrogation
// order cannot matter — the property that makes concurrent injection safe.
func TestRollOrderIndependence(t *testing.T) {
	p := NewPlane(Config{Seed: 7, ExecErrorRate: 0.3})
	var fwd, rev []bool
	for i := 0; i < 64; i++ {
		fwd = append(fwd, p.ShardFault(i%4, time.Duration(i)*time.Millisecond) != nil)
	}
	for i := 63; i >= 0; i-- {
		rev = append(rev, p.ShardFault(i%4, time.Duration(i)*time.Millisecond) != nil)
	}
	for i := range fwd {
		if fwd[i] != rev[63-i] {
			t.Fatalf("roll %d depends on interrogation order", i)
		}
	}
}

// TestClassification: every injected fault — drop, outage, link timeout,
// however deeply wrapped — is retriable, and a real error never is.
func TestClassification(t *testing.T) {
	p := NewPlane(Config{
		LinkTimeoutRate: 1,
		Outages:         []Outage{{Shard: 1, From: 0, To: time.Millisecond}},
		ExecErrorRate:   1,
	})
	_, timeout := p.LinkFault(time.Millisecond)
	cases := []struct {
		err  error
		kind string
	}{
		{p.ShardFault(0, 0), "drop"},
		{p.ShardFault(1, 0), "outage"},
		{timeout, "timeout"},
		{fmt.Errorf("wrapped: %w", timeout), "timeout"},
	}
	for i, c := range cases {
		var fe *Error
		if !errors.As(c.err, &fe) || fe.Kind != c.kind {
			t.Errorf("case %d %v: want an injected %s", i, c.err, c.kind)
		}
		if !Retriable(c.err) {
			t.Errorf("case %d %v: not retriable", i, c.err)
		}
	}
	if Retriable(errors.New("syntax error near FROM")) || Retriable(nil) {
		t.Errorf("real error misclassified")
	}
}

// TestOutageWindow: outages fail exactly inside [From, To) for their shard.
func TestOutageWindow(t *testing.T) {
	p := NewPlane(Config{Outages: []Outage{{Shard: 1, From: 2 * time.Millisecond, To: 4 * time.Millisecond}}})
	if err := p.ShardFault(1, 2*time.Millisecond); !Retriable(err) {
		t.Fatalf("at window start: %v", err)
	}
	if err := p.ShardFault(1, 4*time.Millisecond); err != nil {
		t.Fatalf("at window end (exclusive): %v", err)
	}
	if err := p.ShardFault(0, 3*time.Millisecond); err != nil {
		t.Fatalf("other shard inside window: %v", err)
	}
	if err := p.ShardFault(1, time.Millisecond); err != nil {
		t.Fatalf("before window: %v", err)
	}
}

// TestSlowdownAndTimeout: the only virtual time a plane adds to a trip is a
// timed-out trip's DefaultLinkTimeout. A trip the roll spares costs nothing
// extra, and a timeout reports the constant delay and is observed after it.
func TestSlowdownAndTimeout(t *testing.T) {
	if d, err := NewPlane(Config{}).LinkFault(time.Millisecond); d != 0 || err != nil {
		t.Fatalf("spared trip: delay=%v err=%v", d, err)
	}
	p := NewPlane(Config{LinkTimeoutRate: 1})
	delay, err := p.LinkFault(time.Millisecond)
	var fe *Error
	if delay != DefaultLinkTimeout || !errors.As(err, &fe) || fe.Kind != "timeout" {
		t.Fatalf("timeout: delay=%v err=%v, want delay %v", delay, err, DefaultLinkTimeout)
	}
	if want := time.Millisecond + DefaultLinkTimeout; fe.At != want {
		t.Fatalf("timeout observed at %v, want start + delay = %v", fe.At, want)
	}
}
