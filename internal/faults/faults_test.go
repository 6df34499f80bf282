package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sqldb"
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

// TestClassification: every injected error matches exactly its class
// sentinel, Retriable follows class, and real errors are never injected.
func TestClassification(t *testing.T) {
	cases := []struct {
		err       error
		transient bool
		timeout   bool
		permanent bool
	}{
		{&Error{Class: Transient, Site: "shard0", Kind: "drop"}, true, false, false},
		{&Error{Class: Timeout, Site: "link", Kind: "timeout"}, false, true, false},
		{&Error{Class: Permanent, Site: "exec", Kind: "poison"}, false, false, true},
		{ErrBreakerOpen, true, false, false},
		{fmt.Errorf("wrapped: %w", &Error{Class: Timeout, Site: "link", Kind: "timeout"}), false, true, false},
	}
	for i, c := range cases {
		if errors.Is(c.err, ErrTransient) != c.transient ||
			errors.Is(c.err, ErrTimeout) != c.timeout ||
			errors.Is(c.err, ErrPermanent) != c.permanent {
			t.Errorf("case %d %v: class match wrong", i, c.err)
		}
		if Retriable(c.err) != (c.transient || c.timeout) {
			t.Errorf("case %d %v: Retriable = %v", i, c.err, Retriable(c.err))
		}
		if !Injected(c.err) {
			t.Errorf("case %d %v: not recognized as injected", i, c.err)
		}
	}
	real := errors.New("syntax error near FROM")
	if Retriable(real) || Injected(real) {
		t.Errorf("real error misclassified")
	}
}

// TestOutageWindow: outages fail exactly inside [From, To) for their shard.
func TestOutageWindow(t *testing.T) {
	p := NewPlane(Config{Outages: []Outage{{Shard: 1, From: 2 * time.Millisecond, To: 4 * time.Millisecond}}})
	if err := p.ShardFault(1, 2*time.Millisecond); !errors.Is(err, ErrTransient) {
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

// TestSlowdownAndTimeout: spikes add exactly Extra inside their window and
// timeouts report the configured delay with timeout class.
func TestSlowdownAndTimeout(t *testing.T) {
	p := NewPlane(Config{
		LinkTimeoutRate: 1,
		LinkTimeout:     3 * time.Millisecond,
		Slowdowns:       []Slowdown{{Shard: 0, From: 0, To: time.Millisecond, Extra: 500 * time.Microsecond}},
	})
	if d := p.ShardDelay(0, 500*time.Microsecond); d != 500*time.Microsecond {
		t.Fatalf("in-window delay %v", d)
	}
	if d := p.ShardDelay(0, 2*time.Millisecond); d != 0 {
		t.Fatalf("out-of-window delay %v", d)
	}
	delay, err := p.LinkFault(time.Millisecond)
	if delay != 3*time.Millisecond || !errors.Is(err, ErrTimeout) {
		t.Fatalf("timeout: delay=%v err=%v", delay, err)
	}
}

// TestPoison: poisoned values match through normalization, everything else
// passes, and the error is permanent (never retried, only degraded around).
func TestPoison(t *testing.T) {
	p := NewPlane(Config{PoisonArgs: []sqldb.Value{int64(13)}})
	if err := p.Poisoned([]sqldb.Value{int(13)}, 0); !errors.Is(err, ErrPermanent) {
		t.Fatalf("normalized poison: %v", err)
	}
	if err := p.Poisoned([]sqldb.Value{int64(14), "x"}, 0); err != nil {
		t.Fatalf("clean args: %v", err)
	}
	if err := (*Plane)(nil).Poisoned([]sqldb.Value{int64(13)}, 0); err != nil {
		t.Fatalf("nil plane: %v", err)
	}
}
