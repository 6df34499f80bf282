// Package faults is the reproduction's deterministic fault plane: a
// seeded source of injected failures — transient DB errors, per-shard
// unavailability windows, slow-shard latency spikes, link timeouts, and
// poisoned argument keys — that the driver, the netsim link, and the
// dispatch pipeline consult at well-defined points of the exec path.
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
// violations) are never wrapped by this package and classify as permanent.
package faults

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/sqldb"
)

// Class kinds a fault for retriability decisions: retry logic matches on
// class through errors.Is, never on error strings.
type Class uint8

const (
	// Transient faults (dropped batch, shard outage, breaker rejection)
	// succeed if re-attempted once the condition clears.
	Transient Class = iota
	// Timeout faults are lost round trips: the request may never have
	// reached the server, so the attempt had no effect and retries freely.
	Timeout
	// Permanent faults (poisoned keys) never succeed on retry; recovery
	// must degrade around them instead.
	Permanent
)

// String names the class for error text and trace args.
func (c Class) String() string {
	switch c {
	case Timeout:
		return "timeout"
	case Permanent:
		return "permanent"
	default:
		return "transient"
	}
}

// Sentinel errors for errors.Is classification. An injected *Error matches
// exactly one of these by its Class; the retry layer asks Retriable
// instead of string-matching.
var (
	// ErrTransient matches any transient-class fault.
	ErrTransient = errors.New("faults: transient failure")
	// ErrTimeout matches any timeout-class fault.
	ErrTimeout = errors.New("faults: timeout")
	// ErrPermanent matches any permanent-class fault.
	ErrPermanent = errors.New("faults: permanent failure")
)

// ErrBreakerOpen marks a batch rejected locally by an open per-shard
// circuit breaker (fail fast, no round trip). It is transient: the breaker
// half-opens on the virtual clock, so a backed-off retry can get through.
var ErrBreakerOpen = &Error{Class: Transient, Site: "breaker", Kind: "open"}

// Error is one injected fault, classified and stamped with where and when
// (virtual time) it fired. The fields are all deterministic, so the error
// STRING is reproducible run to run — the determinism tests compare error
// sets textually.
type Error struct {
	Class Class
	Site  string        // injection site: "link", "shard0", "exec", "breaker"
	Kind  string        // what fired: "drop", "outage", "timeout", "poison", "open"
	At    time.Duration // virtual time of the failure
}

// Error renders the fault deterministically.
func (e *Error) Error() string {
	if e.At == 0 && e.Site == "breaker" {
		return fmt.Sprintf("faults: %s %s (%s)", e.Site, e.Kind, e.Class)
	}
	return fmt.Sprintf("faults: %s %s (%s) at %v", e.Site, e.Kind, e.Class, e.At)
}

// Is matches the class sentinels, so errors.Is(err, faults.ErrTransient)
// holds for every transient injected fault however deeply wrapped.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrTransient:
		return e.Class == Transient
	case ErrTimeout:
		return e.Class == Timeout
	case ErrPermanent:
		return e.Class == Permanent
	}
	return false
}

// Retriable reports whether err can succeed if the same work is attempted
// again later: injected transient and timeout faults can; permanent faults
// and real execution errors cannot. This is THE retry predicate — a type
// property, not a string match.
func Retriable(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, ErrTimeout)
}

// Injected reports whether err originated in the fault plane. Injected
// failures fire before any statement executes, so the failed attempt had
// no data effects — the degradation path uses this to know per-statement
// re-execution is safe even for batches carrying writes.
func Injected(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// Outage is one per-shard unavailability window on the virtual timeline:
// every batch touching Shard with arrival in [From, To) fails transiently.
type Outage struct {
	Shard    int
	From, To time.Duration
}

// Slowdown is one per-shard latency spike: batches touching Shard with
// arrival in [From, To) pay Extra additional virtual execution time.
// Content is unaffected — only completion times shift, deterministically.
type Slowdown struct {
	Shard    int
	From, To time.Duration
	Extra    time.Duration
}

// Breaker configures the driver's per-shard circuit breaker.
type Breaker struct {
	// Threshold trips the breaker after this many CONSECUTIVE transient or
	// timeout failures on one shard; 0 disables the breaker.
	Threshold int
	// Cooldown is how long a tripped breaker stays open (fail fast) before
	// half-opening for a probe; <= 0 selects DefaultBreakerCooldown.
	Cooldown time.Duration
}

// DefaultBreakerCooldown is the open interval used when a breaker is
// enabled without an explicit cooldown.
const DefaultBreakerCooldown = 5 * time.Millisecond

// Config describes one fault schedule. The zero value injects nothing.
type Config struct {
	// Seed keys every roll; two planes with equal Seed and schedule make
	// identical decisions at identical (site, time) points.
	Seed uint64

	// ExecErrorRate is the probability, per (shard, arrival), that a batch
	// fails transiently before execution ("the database dropped it").
	ExecErrorRate float64

	// LinkTimeoutRate is the probability, per round trip, that the trip
	// times out: no response after LinkTimeout of virtual time.
	LinkTimeoutRate float64
	// LinkTimeout is the virtual time a timed-out trip wastes before the
	// failure is observed; <= 0 selects DefaultLinkTimeout.
	LinkTimeout time.Duration

	// Outages are scheduled per-shard unavailability windows.
	Outages []Outage
	// Slowdowns are scheduled per-shard latency spikes.
	Slowdowns []Slowdown

	// PoisonArgs marks argument values as poisoned: any batch containing a
	// statement whose arguments include one of these values fails
	// PERMANENTLY before execution. A poisoned key inside a merged
	// IN (...) statement therefore fails the whole rewritten batch — the
	// scenario the dispatch layer's per-statement degradation exists for.
	PoisonArgs []sqldb.Value

	// Breaker configures the driver's per-shard circuit breaker.
	Breaker Breaker
}

// DefaultLinkTimeout is the timeout charged when Config.LinkTimeout is 0.
const DefaultLinkTimeout = 2 * time.Millisecond

// Plane is an installed fault schedule: an immutable, stateless decision
// function, safe for concurrent use. It counts nothing — the callers that
// act on a decision do (the driver's ServerStats, the link's LinkStats).
type Plane struct {
	cfg Config
}

// NewPlane builds a fault plane from cfg, normalizing defaulted fields.
func NewPlane(cfg Config) *Plane {
	if cfg.LinkTimeout <= 0 {
		cfg.LinkTimeout = DefaultLinkTimeout
	}
	if cfg.Breaker.Threshold > 0 && cfg.Breaker.Cooldown <= 0 {
		cfg.Breaker.Cooldown = DefaultBreakerCooldown
	}
	return &Plane{cfg: cfg}
}

// Config returns the plane's normalized configuration (the driver reads
// the breaker settings from it).
func (p *Plane) Config() Config { return p.cfg }

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
// failure is observed and a timeout-class error. It implements the netsim
// link's fault hook.
func (p *Plane) LinkFault(at time.Duration) (time.Duration, error) {
	if p == nil || p.cfg.LinkTimeoutRate <= 0 {
		return 0, nil
	}
	if p.roll("link", 0, at) >= p.cfg.LinkTimeoutRate {
		return 0, nil
	}
	return p.cfg.LinkTimeout, &Error{Class: Timeout, Site: "link", Kind: "timeout", At: at + p.cfg.LinkTimeout}
}

// ShardFault decides whether a batch arriving at `at` and touching shard
// fails before execution: first the scheduled outage windows, then the
// transient drop roll. The returned error is transient-class either way.
func (p *Plane) ShardFault(shard int, at time.Duration) error {
	if p == nil {
		return nil
	}
	for _, o := range p.cfg.Outages {
		if o.Shard == shard && at >= o.From && at < o.To {
			return &Error{Class: Transient, Site: fmt.Sprintf("shard%d", shard), Kind: "outage", At: at}
		}
	}
	if p.cfg.ExecErrorRate > 0 && p.roll("exec", uint64(shard), at) < p.cfg.ExecErrorRate {
		return &Error{Class: Transient, Site: fmt.Sprintf("shard%d", shard), Kind: "drop", At: at}
	}
	return nil
}

// ShardDelay returns the scheduled latency spike for a batch touching
// shard at virtual time `at` (zero when no spike window covers it).
func (p *Plane) ShardDelay(shard int, at time.Duration) time.Duration {
	if p == nil {
		return 0
	}
	var extra time.Duration
	for _, s := range p.cfg.Slowdowns {
		if s.Shard == shard && at >= s.From && at < s.To {
			extra += s.Extra
		}
	}
	return extra
}

// Poisoned reports whether any of args carries a poisoned value, failing
// the statement (and any batch embedding it) permanently. Values compare
// through the engine's normalization, so int/int64 spellings agree.
func (p *Plane) Poisoned(args []sqldb.Value, at time.Duration) error {
	if p == nil || len(p.cfg.PoisonArgs) == 0 {
		return nil
	}
	for _, a := range args {
		na := sqldb.Normalize(a)
		for _, bad := range p.cfg.PoisonArgs {
			if na == sqldb.Normalize(bad) {
				return &Error{Class: Permanent, Site: "exec", Kind: "poison", At: at}
			}
		}
	}
	return nil
}
