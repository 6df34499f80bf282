package driver

import (
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
)

// This file wires the deterministic fault plane (internal/faults) into the
// server's exec path and implements the per-shard circuit breaker on top
// of it. All injected failures fire BEFORE a batch executes (see
// preExecFault), so a failed attempt never has data effects and the
// dispatch layer may retry any batch — reads and pipelined writes alike —
// without risking double execution.

// breaker is one shard's circuit-breaker state, guarded by Server.mu.
//
// State machine: CLOSED counts consecutive injected shard failures and
// trips OPEN at the configured threshold; OPEN rejects batches locally
// (fail fast, no round trip) until the cooldown expires on the virtual
// clock; past openUntil the breaker is HALF-OPEN — the next batch goes
// through as a probe, closing the breaker if it clears injection and
// re-opening it (for a fresh cooldown) if it does not.
//
// Determinism caveat: the breaker is the one deliberately ORDER-DEPENDENT
// piece of the fault plane. "Consecutive failures" is a property of the
// host-time order in which concurrent sessions' batches reach the server,
// so breaker transitions are reproducible for serialized workloads (one
// session) but not across arbitrary concurrent interleavings. The determinism tests run
// with the breaker disabled; the chaos hammer runs with it enabled and
// asserts only safety, not schedules.
type breaker struct {
	fails     int // consecutive counted failures while closed
	open      bool
	openUntil time.Duration
}

// SetFaults installs plane as the server's fault schedule (nil uninstalls),
// sizing the per-shard breaker array from the plane's breaker config. Every
// connection sees it from its next batch on: the exec path consults the
// link's timeout roll through the installed plane (preExecFault). Call
// between replays, not while batches are in flight: the exec path reads
// the plane pointer without locking.
func (s *Server) SetFaults(plane *faults.Plane) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.faults = plane
	s.brk = nil
	s.brkCfg = faults.Breaker{}
	if plane != nil {
		s.brkCfg = plane.Config().Breaker
		if s.brkCfg.Threshold > 0 {
			s.brk = make([]breaker, s.shards)
		}
	}
}

// touchedShards expands an occupancy mask into the shard indexes a batch
// lands on: the set bits, or every shard when the mask is 0 (unroutable
// batch, or an unsharded store).
func (s *Server) touchedShards(mask uint64) []int {
	shards := make([]int, 0, s.shards)
	for sh := 0; sh < s.shards; sh++ {
		if mask == 0 || mask&(1<<uint(sh)) != 0 {
			shards = append(shards, sh)
		}
	}
	return shards
}

// preExecFault runs the fault plane's pre-execution gauntlet for a batch
// arriving at `arrival` and touching `shards`. On injection it returns the
// virtual time at which the failure is OBSERVED by the session (the retry
// layer schedules its backoff from this instant) and the classified error:
//
//  1. circuit breaker — an open breaker on any touched shard rejects the
//     batch locally: no round trip, failure observed at arrival;
//  2. link timeout — the request is lost in flight and the failure is
//     observed only after the timeout's wasted delay (the link has
//     already charged that delay to its own accounting);
//  3. poisoned arguments — the server rejects the batch permanently after
//     one wasted round trip;
//  4. per-shard outage/drop rolls — transient, one wasted round trip,
//     counted in ServerStats.FaultDrops and against the shard's breaker.
//
// A batch that clears all four resets the breakers of every shard it
// touched (the shard demonstrably responded).
func (s *Server) preExecFault(link *netsim.Link, arrival time.Duration, reqBytes int, mask uint64, stmts []Stmt) (time.Duration, error) {
	shards := s.touchedShards(mask)
	if err := s.breakerCheck(shards, arrival); err != nil {
		return arrival, err
	}
	if delay, err := link.TripFault(s.faults, arrival); err != nil {
		return arrival + delay, err
	}
	for _, st := range stmts {
		if err := s.faults.Poisoned(st.Args, arrival); err != nil {
			link.Charge(reqBytes, 0)
			return arrival + link.RTT(), err
		}
	}
	for _, sh := range shards {
		if err := s.faults.ShardFault(sh, arrival); err != nil {
			s.shardFailed(sh, arrival)
			link.Charge(reqBytes, 0)
			return arrival + link.RTT(), err
		}
	}
	s.breakerOK(shards)
	return 0, nil
}

// shardDelay returns the slow-shard latency spike the batch pays: the
// maximum scheduled delay over its touched shards (a scatter completes
// when its slowest shard does). Content is unaffected.
func (s *Server) shardDelay(mask uint64, arrival time.Duration) time.Duration {
	var extra time.Duration
	for _, sh := range s.touchedShards(mask) {
		if d := s.faults.ShardDelay(sh, arrival); d > extra {
			extra = d
		}
	}
	return extra
}

// breakerCheck rejects the batch if any touched shard's breaker is open
// and still cooling down at `at`; breakers past their cooldown let the
// batch through as half-open probes. Probes are counted only once every
// touched shard has passed, so a batch rejected by a later shard probes
// nothing whatever the shard order.
func (s *Server) breakerCheck(shards []int, at time.Duration) error {
	if s.brk == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var probes int64
	for _, sh := range shards {
		b := &s.brk[sh]
		if !b.open {
			continue
		}
		if at < b.openUntil {
			s.stats.BreakerFastFails++
			return faults.ErrBreakerOpen
		}
		probes++
	}
	s.stats.BreakerProbes += probes
	return nil
}

// shardFailed counts one injected shard failure (an outage or a drop) and
// charges it against the shard's breaker, tripping it open (or re-opening
// a failed half-open probe) for a fresh cooldown starting at `at`.
func (s *Server) shardFailed(shard int, at time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.FaultDrops++
	if s.brk == nil {
		return
	}
	b := &s.brk[shard]
	b.fails++
	if b.open || b.fails >= s.brkCfg.Threshold {
		b.open = true
		b.openUntil = at + s.brkCfg.Cooldown
		b.fails = 0
		s.stats.BreakerTrips++
	}
}

// breakerOK resets the breakers of shards that just served a batch:
// a half-open probe success closes the breaker, and any consecutive-
// failure count restarts from zero.
func (s *Server) breakerOK(shards []int) {
	if s.brk == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range shards {
		s.brk[sh] = breaker{}
	}
}
