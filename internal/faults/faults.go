// Package faults is the reproduction's deterministic fault plane: a
// seeded source of injected failures — dropped batches, per-shard
// unavailability windows and link timeouts — that the driver and the
// netsim link consult before a batch executes.
//
// Determinism is the load-bearing property. Every injection decision is a
// PURE FUNCTION of (seed, site, content, virtual time): the plane carries
// no mutable PRNG state, so the order in which concurrent goroutines reach
// it cannot change any outcome, and two runs with the same seed and the
// same virtual timeline draw bit-for-bit identical fault schedules. A
// retry that re-attempts at a later virtual instant keys a FRESH roll —
// which is what makes "any fault schedule that eventually recovers"
// testable: backed-off retries walk forward on the virtual clock until the
// rolls (or the outage windows) clear.
//
// Every injected failure fires BEFORE the batch executes, so a failed
// attempt has no data effects; retrying it — reads and writes alike — is
// always safe, and pipelined writes stay pre-publication until their first
// successful execution. Real execution errors (SQL errors, constraint
// violations) are never wrapped by this package and are never retried.
package faults

import (
	"errors"
	"fmt"
	"time"
)

// Error is one injected fault, stamped with where and when (virtual time)
// it fired. The fields are all deterministic, so the error STRING is
// reproducible run to run — the determinism tests compare error sets
// textually.
type Error struct {
	Site string        // injection site: "link", "shard0", ...
	Kind string        // what fired: "drop", "outage", "timeout"
	At   time.Duration // virtual time of the failure
}

// Error renders the fault deterministically.
func (e *Error) Error() string {
	return fmt.Sprintf("faults: %s %s at %v", e.Site, e.Kind, e.At)
}

// Retriable reports whether err can succeed if the same work is attempted
// again later: every injected fault can, however deeply wrapped; real
// execution errors cannot. This is THE retry predicate — a type property,
// not a string match.
func Retriable(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Outage is one per-shard unavailability window on the virtual timeline:
// every batch touching Shard with arrival in [From, To) fails.
type Outage struct {
	Shard    int
	From, To time.Duration
}

// Config describes one fault schedule. The zero value injects nothing.
type Config struct {
	// Seed keys every roll; two planes with equal Seed and schedule make
	// identical decisions at identical (site, time) points.
	Seed uint64

	// ExecErrorRate is the probability, per (shard, arrival), that a batch
	// fails before execution ("the database dropped it").
	ExecErrorRate float64

	// LinkTimeoutRate is the probability, per round trip, that the trip
	// times out: no response after DefaultLinkTimeout of virtual time.
	LinkTimeoutRate float64

	// Outages are scheduled per-shard unavailability windows.
	Outages []Outage
}

// DefaultLinkTimeout is the virtual time a timed-out trip wastes before the
// failure is observed.
const DefaultLinkTimeout = 2 * time.Millisecond

// Plane is an installed fault schedule: an immutable, stateless decision
// function, safe for concurrent use. It counts nothing — the callers that
// act on a decision do (the driver's ServerStats, the link's LinkStats).
type Plane struct {
	cfg Config
}

// NewPlane builds a fault plane from cfg.
func NewPlane(cfg Config) *Plane {
	return &Plane{cfg: cfg}
}

// ---------------------------------------------------------------------------
// The keyed roll.
//
// mix64 is the splitmix64 finalizer: a bijective avalanche over 64 bits.
// A roll hashes (seed ⊕ fnv(site) ⊕ salt ⊕ virtual-nanos) through it and
// maps the top 53 bits onto [0, 1). No state, no order dependence: the
// same question at the same virtual instant always gets the same answer.

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func fnv64(s string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// roll returns the deterministic uniform [0,1) draw for (site, salt, at).
func (p *Plane) roll(site string, salt uint64, at time.Duration) float64 {
	x := mix64(p.cfg.Seed ^ fnv64(site) ^ mix64(salt) ^ uint64(at))
	return float64(x>>11) / (1 << 53)
}

// ---------------------------------------------------------------------------
// Decision points.

// LinkFault decides whether a round trip starting at virtual time `at`
// times out. On a timeout it returns the virtual delay wasted before the
// failure is observed and the timeout error. It implements the netsim
// link's fault hook.
func (p *Plane) LinkFault(at time.Duration) (time.Duration, error) {
	if p == nil || p.cfg.LinkTimeoutRate <= 0 {
		return 0, nil
	}
	if p.roll("link", 0, at) >= p.cfg.LinkTimeoutRate {
		return 0, nil
	}
	return DefaultLinkTimeout, &Error{Site: "link", Kind: "timeout", At: at + DefaultLinkTimeout}
}

// ShardFault decides whether a batch arriving at `at` and touching shard
// fails before execution: first the scheduled outage windows, then the
// drop roll.
func (p *Plane) ShardFault(shard int, at time.Duration) error {
	if p == nil {
		return nil
	}
	for _, o := range p.cfg.Outages {
		if o.Shard == shard && at >= o.From && at < o.To {
			return &Error{Site: fmt.Sprintf("shard%d", shard), Kind: "outage", At: at}
		}
	}
	if p.cfg.ExecErrorRate > 0 && p.roll("exec", uint64(shard), at) < p.cfg.ExecErrorRate {
		return &Error{Site: fmt.Sprintf("shard%d", shard), Kind: "drop", At: at}
	}
	return nil
}
