package dispatch

import (
	"time"

	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// Recovery defaults: the initial backoff is a fraction of a typical round
// trip (retry soon — most injected faults are instantaneous rolls) and the
// cap keeps walked-out schedules bounded so a long outage window is probed
// every couple of milliseconds of virtual time.
const (
	DefaultRetryBackoff = 100 * time.Microsecond
	DefaultMaxBackoff   = 2 * time.Millisecond
)

// RetryPolicy configures per-batch recovery for a dispatcher: capped
// exponential backoff retry of retriable (transient/timeout-class) injected
// failures, and graceful degradation of terminally-failed multi-statement
// batches to per-statement execution. The zero value disables recovery —
// every strategy then behaves exactly as before the fault plane existed.
//
// Retry is always safe here, for reads AND pipelined writes: injected
// faults fire before a batch executes (see internal/faults), so a failed
// attempt had no data effects, and real execution errors classify as
// permanent and are never retried — a write error still surfaces exactly
// once, at the same barrier/close point as without a policy.
//
// Backoff is VIRTUAL: a retry re-attempts the batch at (failure time +
// backoff) on the session's simulated timeline, which keys fresh fault
// rolls — so under any fault schedule that eventually recovers, the walked-
// out attempts deterministically find the recovery point.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions allowed per batch
	// (first try included). <= 1 disables recovery.
	MaxAttempts int
	// Backoff is the delay before the first retry, doubling on each
	// subsequent one; <= 0 selects DefaultRetryBackoff.
	Backoff time.Duration
	// MaxBackoff caps the doubling; <= 0 selects DefaultMaxBackoff.
	MaxBackoff time.Duration
	// Deadline bounds a batch's whole recovery effort in virtual time from
	// its first arrival: a retry that would begin past the deadline is not
	// attempted and the batch fails with the last error. 0 means no
	// deadline.
	Deadline time.Duration
}

// enabled reports whether the policy performs any recovery at all.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// backoffAfter is the capped exponential delay scheduled after the n-th
// failed attempt (1-based).
func (p RetryPolicy) backoffAfter(attempt int) time.Duration {
	b := p.Backoff
	if b <= 0 {
		b = DefaultRetryBackoff
	}
	ceil := p.MaxBackoff
	if ceil <= 0 {
		ceil = DefaultMaxBackoff
	}
	for i := 1; i < attempt && b < ceil; i++ {
		b *= 2
	}
	if b > ceil {
		b = ceil
	}
	return b
}

// recovery is the outcome of one batch's trip down the pipeline — how many
// statements the stages left (sent) and how its resilient execution ended:
// either plain success (results per original statement), terminal failure
// (err), or a degraded partial result (stmtErrs aligned with the original
// statements, nil entries succeeded).
type recovery struct {
	sent     int // statements handed to the database after rewriting
	results  []*sqldb.ResultSet
	stmtErrs []error
	done     time.Duration
	retries  int64
	degraded bool
	err      error
}

// execAttempts drives one statement list through the retry loop: execute at
// `at`, and while the failure is retriable (injected transient/timeout) and
// attempts and deadline allow, re-attempt at the failure's observation time
// plus the capped exponential backoff. Returns the last attempt's outcome
// and how many retries were spent; `done` carries the virtual completion
// time on success and the last failure-observation time on error.
func execAttempts(conn *driver.Conn, ctx obs.Ctx, arrival time.Duration, stmts []driver.Stmt, policy RetryPolicy) ([]*sqldb.ResultSet, time.Duration, int64, error) {
	var retries int64
	var deadline time.Duration
	if policy.Deadline > 0 {
		deadline = arrival + policy.Deadline
	}
	at := arrival
	for attempt := 1; ; attempt++ {
		results, done, err := conn.Exec(ctx, at, stmts)
		if err == nil {
			return results, done, retries, nil
		}
		// On failure `done` is the virtual instant the failure was OBSERVED
		// (after any wasted trip/timeout delay) — backoff schedules from it.
		if !faults.Retriable(err) || attempt >= policy.MaxAttempts {
			return nil, done, retries, err
		}
		next := done + policy.backoffAfter(attempt)
		if deadline > 0 && next > deadline {
			return nil, done, retries, err
		}
		retries++
		if ctx.Enabled() {
			ctx.Instant("retry", "backoff", next,
				obs.Arg{K: "attempt", V: attempt + 1},
				obs.Arg{K: "err", V: err.Error()})
		}
		at = next
	}
}

// runBatch is the one road from a held batch to the driver, shared by every
// dispatch strategy and the hub's windows: the stages rewrite the batch, and
// the rewritten batch runs under the retry loop, modeled as arriving at
// virtual time `arrival`; if it still fails on an INJECTED error (so the
// attempt demonstrably had no data effects) and the original batch has more
// than one statement, execution degrades to the ORIGINAL statements one at a
// time — each with its own retry budget — so one poisoned key fails one
// statement instead of every query that was merged or coalesced with it.
// Degraded results need no demux: they are already per original statement.
func runBatch(conn *driver.Conn, ctx obs.Ctx, arrival time.Duration, stages []Stage, orig []driver.Stmt, policy RetryPolicy) recovery {
	out, demux := applyStages(ctx, arrival, stages, orig)
	r := recovery{sent: len(out)}
	var results []*sqldb.ResultSet
	results, r.done, r.retries, r.err = execAttempts(conn, ctx, arrival, out, policy)
	if r.err == nil {
		if demux != nil {
			results, r.err = demux(results)
		}
		r.results = results
		return r
	}
	if !policy.enabled() || !faults.Injected(r.err) || len(orig) <= 1 {
		return r
	}
	batchErr := r.err
	r.err = nil
	r.degraded = true
	r.results = make([]*sqldb.ResultSet, len(orig))
	r.stmtErrs = make([]error, len(orig))
	if ctx.Enabled() {
		ctx.Instant("degrade", "per-stmt", r.done,
			obs.Arg{K: "stmts", V: len(orig)},
			obs.Arg{K: "err", V: batchErr.Error()})
	}
	// Sequential per-statement replay from the batch failure point keeps
	// statement order (writes included) and a deterministic timeline.
	cursor := r.done
	failed := 0
	for i := range orig {
		res, done, retries, err := execAttempts(conn, ctx, cursor, orig[i:i+1], policy)
		r.retries += retries
		cursor = done
		if err != nil {
			r.stmtErrs[i] = err
			failed++
			continue
		}
		r.results[i] = res[0]
	}
	r.done = cursor
	if failed == len(orig) {
		// Nothing was salvaged; surface the batch failure terminally rather
		// than as a sea of per-statement errors.
		r.results, r.stmtErrs, r.degraded = nil, nil, false
		r.err = batchErr
	}
	return r
}

// StmtErrs exposes a degraded ticket's per-original-statement errors (nil
// when the batch either fully succeeded or failed terminally). Index i
// corresponds to the i-th statement submitted in this ticket's batch; nil
// entries succeeded and have their result in the Wait results. Valid after
// Wait returns, for as long as the ticket is (see Ticket).
func (t *Ticket) StmtErrs() []error { return t.stmtErrs }
