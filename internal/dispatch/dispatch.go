// Package dispatch is the pluggable execution pipeline between the query
// store and the batch driver. The query store accumulates statements; a
// Dispatcher decides WHEN an accumulated batch executes and when the session
// pays for it on its virtual clock:
//
//   - Sync reproduces the paper's behaviour exactly: Submit rewrites the
//     batch through the pipeline stage, executes it in one blocking round
//     trip, and Wait just hands the results back.
//   - Async is the pipelined-flush strategy (ROADMAP "async/pipelined
//     flushes"): Submit executes the batch just as Sync does but leaves the
//     session clock where it was, so app-server compute after Submit
//     overlaps the round trip on the virtual timeline; Wait pays only the
//     completion time the session has not already spent computing.
//
// Sync and Async are one type, Local, which runs every batch on the
// submitting session's goroutine inside Submit; the package starts no
// goroutine.
//
// A dispatcher runs at most one pipeline stage (the batch query-merge
// optimizer of internal/merge), which rewrites a batch before execution and
// demultiplexes its results after, so both strategies benefit from the same
// optimization.
package dispatch

import (
	"time"

	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// Kind selects a dispatch strategy in configuration surfaces (query-store
// config, benchmark flags).
type Kind int

const (
	// KindSync executes batches synchronously at submit time (the paper's
	// strategy; the zero value, so existing configurations are unchanged).
	KindSync Kind = iota
	// KindAsync executes batches at submit time but charges the session
	// only when it waits.
	KindAsync
)

// String names the strategy (benchmark report labels).
func (k Kind) String() string {
	switch k {
	case KindAsync:
		return "async"
	default:
		return "sync"
	}
}

// ParseKind maps a flag value to a Kind.
func ParseKind(s string) (Kind, bool) {
	switch s {
	case "sync", "":
		return KindSync, true
	case "async":
		return KindAsync, true
	}
	return KindSync, false
}

// BatchStats describes what execution of one submitted batch cost. No
// layer reads it: the query store counts batches itself and the connection
// counts the statements sent (driver.Conn.QueriesSent). It stays only
// because benchmark/ implements Dispatcher, whose Wait returns it.
type BatchStats struct {
	// Sent is how many statements this batch contributed to the database
	// after pipeline rewriting.
	Sent int
}

// Ticket is the handle for one submitted batch. Wait on it through the
// dispatcher that issued it, from the session that submitted it. A NewSync
// ticket is valid until that dispatcher's next Submit, which reuses it for
// the next batch; any other ticket may be waited again, returning the same
// outcome and charging nothing.
type Ticket struct {
	arrival time.Duration // session virtual time at Submit
	waited  bool          // settle has charged this ticket

	results    []*sqldb.ResultSet
	err        error
	bs         BatchStats
	completeAt time.Duration // absolute virtual completion time
}

// Dispatcher is the pluggable execution strategy.
//
// Submit hands over one batch in statement order and returns a ticket. It
// takes everything else from the session's connection: the batch arrives
// at the connection clock's current time, and its pipeline and execution
// spans parent under the connection's trace context (driver.Conn.TraceCtx).
// Wait returns once the ticket's batch has executed, charges any
// not-yet-overlapped completion time to the session's clock, and returns
// the per-original-statement results (after stage demultiplexing). A
// ticket stays valid at least until the issuing dispatcher's next Submit
// (the synchronous strategy reuses one ticket), so wait on it before
// submitting again unless the strategy is deferred.
// Deferred reports whether the session pays for a batch at Wait rather
// than at Submit — the query store uses it to keep the synchronous
// strategy's error surfaces byte-compatible. Close releases strategy
// resources; a dispatcher must not be used after Close.
type Dispatcher interface {
	Submit(stmts []driver.Stmt) *Ticket
	Wait(t *Ticket) ([]*sqldb.ResultSet, BatchStats, error)
	Deferred() bool
	Stats() Stats
	Close()
}

// Stats counts dispatcher activity.
type Stats struct {
	StmtsIn int64 // statements submitted
	// StmtsOut is statements handed to the database after pipeline
	// rewriting — attempts, counted whether or not the batch then failed,
	// so the error path and the success path account identically; Errors
	// records the failures.
	StmtsOut int64
	// Errors counts batch executions that failed TERMINALLY: retried
	// attempts that eventually succeeded land in Retries instead, so under
	// injected faults the error accounting stays deterministic and a
	// recovered batch is not misreported as a failure.
	Errors int64
	// Retries counts re-attempted batch executions under a RetryPolicy
	// (each backed-off attempt after the first, across all batches).
	Retries int64
	// OverlapSaved is virtual time that batch execution spent overlapped
	// with app-server compute: the portion of completion time a session
	// did not have to wait for (async only).
	OverlapSaved time.Duration
	// PeakQueue is the high-water mark of a deferred dispatcher's tickets
	// submitted but not yet waited — how many pipelined flushes a session
	// had in flight at once (0 under sync, where Submit pays for each).
	PeakQueue int64
}

// Demux maps executed results back onto a batch's original statements.
type Demux func([]*sqldb.ResultSet) ([]*sqldb.ResultSet, error)

// StageStats is one stage's effect on one batch, for the pipeline's "merge"
// trace annotation; a stage keeps its own cumulative counters (merge.Stats).
type StageStats struct {
	Saved  int // statements eliminated
	Groups int // merged statements emitted
}

// Stage is one pipeline rewrite pass: it may coalesce, reorder-preserving,
// the statements of a batch, and must return a demux that reconstructs
// exactly the results the original statements would have produced.
type Stage interface {
	Apply(stmts []driver.Stmt) ([]driver.Stmt, Demux, StageStats)
}

// mergeStage adapts the batch query-merge optimizer to the pipeline.
type mergeStage struct {
	m *merge.Merger
}

// MergeStage wraps a merge.Merger as a pipeline stage. The merger's own
// Stats are the one count of what merging saved.
func MergeStage(m *merge.Merger) Stage { return mergeStage{m: m} }

func (s mergeStage) Apply(stmts []driver.Stmt) ([]driver.Stmt, Demux, StageStats) {
	plan := s.m.Rewrite(stmts)
	if plan.Groups() == 0 { // pass-through: the batch itself, nothing to demultiplex
		return plan.Stmts, nil, StageStats{}
	}
	return plan.Stmts, plan.Demux, StageStats{Saved: plan.Saved(), Groups: plan.Groups()}
}

// applyStage runs the pipeline's one stage, if any, over a batch. When ctx
// records it also leaves a zero-width "merge" span at the batch's virtual
// submit time `at` saying what the rewrite did (statements in/out,
// eliminated, merged groups). The rewrite itself takes no virtual time — it
// happens inside the driver round trip the paper's extended driver already
// pays for — so the span is an annotation, not a duration.
func applyStage(ctx obs.Ctx, at time.Duration, stage Stage, stmts []driver.Stmt) ([]driver.Stmt, Demux) {
	if stage == nil {
		return stmts, nil
	}
	out, demux, ss := stage.Apply(stmts)
	if ctx.Enabled() {
		ctx.Instant("merge", "rewrite", at,
			obs.Arg{K: "in", V: len(stmts)},
			obs.Arg{K: "out", V: len(out)},
			obs.Arg{K: "saved", V: ss.Saved},
			obs.Arg{K: "groups", V: ss.Groups})
	}
	return out, demux
}

// addRun accounts one batch run; the caller holds the dispatcher's lock. Attempts
// (StmtsOut) count whether or not the batch then failed, so the error path
// accounts exactly like the success path. Retried
// attempts that recovered count in Retries, NOT Errors — only a terminal
// failure is an error, so stats stay deterministic under injected faults.
func (st *Stats) addRun(r recovery) {
	st.StmtsOut += int64(r.sent)
	st.Retries += r.retries
	if r.err != nil {
		st.Errors++
	}
}
