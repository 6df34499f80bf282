package dispatch

import (
	"time"

	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// The backoff schedule: the first retry waits a fraction of a typical
// round trip (retry soon — most injected faults are instantaneous rolls),
// each later one doubles it, and the cap keeps walked-out schedules bounded
// so a long outage window is probed every couple of milliseconds of virtual
// time.
const (
	retryBackoff    = 100 * time.Microsecond
	maxRetryBackoff = 2 * time.Millisecond
)

// RetryPolicy configures per-batch recovery for a dispatcher: capped
// exponential backoff retry of injected failures. A batch whose attempts
// run out fails terminally, the way a real engine error does. The zero
// value disables recovery — every strategy then behaves exactly as before
// the fault plane existed.
//
// Retry is always safe here, for reads AND pipelined writes: injected
// faults fire before a batch executes (see internal/faults), so a failed
// attempt had no data effects, and real execution errors are never
// retried — a write error still surfaces exactly once, at the same
// barrier/close point as without a policy.
//
// Backoff is VIRTUAL: a retry re-attempts the batch at (failure time +
// backoff) on the session's simulated timeline, which keys fresh fault
// rolls — so under any fault schedule that eventually recovers, the walked-
// out attempts deterministically find the recovery point. The schedule is
// fixed (100 µs doubling to a 2 ms cap); the attempt budget is the policy.
type RetryPolicy struct {
	// MaxAttempts is the total number of executions allowed per batch
	// (first try included). <= 1 disables recovery.
	MaxAttempts int
}

// backoffAfter is the capped exponential delay scheduled after the n-th
// failed attempt (1-based).
func backoffAfter(attempt int) time.Duration {
	b := retryBackoff
	for i := 1; i < attempt && b < maxRetryBackoff; i++ {
		b *= 2
	}
	return min(b, maxRetryBackoff)
}

// recovery is the outcome of one batch's trip down the pipeline: how many
// statements the stage left (sent), and either the results per original
// statement or the terminal error.
type recovery struct {
	sent    int // statements handed to the database after rewriting
	results []*sqldb.ResultSet
	done    time.Duration
	retries int64
	err     error
}

// execAttempts drives one statement list through the retry loop: execute at
// `at`, and while the failure is retriable (an injected fault) and
// attempts remain, re-attempt at the failure's observation time
// plus the capped exponential backoff. Returns the last attempt's outcome
// and how many retries were spent; `done` carries the virtual completion
// time on success and the last failure-observation time on error.
func execAttempts(conn *driver.Conn, ctx obs.Ctx, arrival time.Duration, stmts []driver.Stmt, policy RetryPolicy) ([]*sqldb.ResultSet, time.Duration, int64, error) {
	var retries int64
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
		next := done + backoffAfter(attempt)
		retries++
		if ctx.Enabled() {
			ctx.Instant("retry", "backoff", next,
				obs.Arg{K: "attempt", V: attempt + 1},
				obs.Arg{K: "err", V: err.Error()})
		}
		at = next
	}
}

// runBatch is the one road from a held batch to the driver, shared by both
// dispatch strategies: the stage, if any, rewrites the batch, and the rewritten
// batch runs under the retry loop, modeled as arriving at virtual time
// `arrival`, its results demultiplexed back per original statement.
func runBatch(conn *driver.Conn, ctx obs.Ctx, arrival time.Duration, stage Stage, orig []driver.Stmt, policy RetryPolicy) recovery {
	out, demux := applyStage(ctx, arrival, stage, orig)
	r := recovery{sent: len(out)}
	r.results, r.done, r.retries, r.err = execAttempts(conn, ctx, arrival, out, policy)
	if r.err == nil && demux != nil {
		r.results, r.err = demux(r.results)
	}
	return r
}
