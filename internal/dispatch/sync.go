package dispatch

import (
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

var _ Dispatcher = (*Sync)(nil)

// Sync is the paper's dispatch strategy: Submit rewrites the batch through
// the pipeline stages and executes it immediately in one blocking round
// trip on the session's connection. Wait is then a cache hit. Like the
// query store it serves, a Sync dispatcher belongs to one session thread.
type Sync struct {
	conn   *driver.Conn
	stages []Stage
	retry  RetryPolicy
	box    statsBox
}

// SetRetry installs the recovery policy (retry/degradation) for this
// dispatcher's batches. Call before submitting.
func (s *Sync) SetRetry(p RetryPolicy) { s.retry = p }

// NewSync creates the synchronous dispatcher.
func NewSync(conn *driver.Conn, stages ...Stage) *Sync {
	return &Sync{conn: conn, stages: stages}
}

// Submit executes the batch now; the returned ticket is already complete.
func (s *Sync) Submit(stmts []driver.Stmt) *Ticket {
	return s.SubmitCtx(obs.Ctx{}, stmts)
}

// SubmitCtx is Submit with a span context for the batch's pipeline and
// execution spans.
func (s *Sync) SubmitCtx(ctx obs.Ctx, stmts []driver.Stmt) *Ticket {
	s.box.addSubmit(len(stmts))
	clock := s.conn.Clock()
	t := &Ticket{stmts: stmts, arrival: clock.Now(), ctx: ctx}
	s.box.runTicket(t, s.conn, s.stages, s.retry)
	// The session pays the virtual time it observed — on terminal failure
	// too, where completeAt is the last failure-observation time (the arrival
	// for real engine errors, making this a no-op). A frozen clock after a failure
	// would replay the identical time-keyed fault rolls (and re-arrive
	// inside the same breaker-open window) forever.
	netsim.AdvanceTo(clock, t.completeAt)
	return t
}

// Wait returns the already-computed results.
func (s *Sync) Wait(t *Ticket) ([]*sqldb.ResultSet, BatchStats, error) {
	return t.results, t.bs, t.err
}

// Deferred reports that Submit blocks until execution completes.
func (s *Sync) Deferred() bool { return false }

// Stats snapshots the dispatcher counters.
func (s *Sync) Stats() Stats { return s.box.snapshot() }

// Close is a no-op: Sync holds no resources.
func (s *Sync) Close() {}
