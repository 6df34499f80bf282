package dispatch

import (
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/sqldb"
)

var _ Dispatcher = (*Local)(nil)

// Local is the Sync and Async strategy: every batch runs on the session's
// own connection and goroutine, inside Submit, priced by Conn.Exec as
// arriving at the session's current virtual time. Under NewSync the
// session pays the round trip in Submit; under NewAsync it pays in Wait,
// and only the completion time not already overlapped with compute since
// Submit (the async half of the paper's Sec. 5 server driver). Batches
// execute in submission order, so write barriers and read-your-writes hold
// under both. A Local dispatcher belongs to one session goroutine, like the
// query store it serves; Stats may be read from any.
type Local struct {
	conn     *driver.Conn
	stages   []Stage
	retry    RetryPolicy
	deferred bool
	box      statsBox
	// ticket is the one ticket NewSync hands out, reset by every Submit (see
	// Ticket). NewAsync allocates one per batch: several are in flight at
	// once.
	ticket Ticket
}

// NewSync creates the synchronous dispatcher.
func NewSync(conn *driver.Conn, stages ...Stage) *Local {
	return &Local{conn: conn, stages: stages}
}

// NewAsync creates the pipelined-flush dispatcher.
func NewAsync(conn *driver.Conn, stages ...Stage) *Local {
	return &Local{conn: conn, stages: stages, deferred: true}
}

// SetRetry installs the recovery policy (retry/degradation) for this
// dispatcher's batches. Call before submitting.
func (d *Local) SetRetry(p RetryPolicy) { d.retry = p }

// Submit executes the batch now; the returned ticket is already final. Under
// NewSync it is the dispatcher's own ticket, valid until the next Submit.
func (d *Local) Submit(stmts []driver.Stmt) *Ticket {
	clock := d.conn.Clock()
	t := &d.ticket
	if d.deferred {
		t = new(Ticket)
	}
	*t = Ticket{stmts: stmts, arrival: clock.Now(), ctx: d.conn.TraceCtx()}
	d.box.runTicket(t, d.conn, d.stages, d.retry, d.deferred)
	if !d.deferred {
		// The session pays the virtual time it observed — on terminal failure
		// too, where completeAt is the last failure-observation time (the
		// arrival for real engine errors, making this a no-op). A frozen clock
		// after a failure would replay the identical time-keyed fault rolls
		// (and re-arrive inside the same breaker-open window) forever.
		netsim.AdvanceTo(clock, t.completeAt)
	}
	return t
}

// Wait returns the ticket's results; under NewAsync it first pays the
// completion time the session has not already overlapped with compute.
func (d *Local) Wait(t *Ticket) ([]*sqldb.ResultSet, BatchStats, error) {
	if d.deferred {
		return d.box.settle(d.conn.Clock(), t)
	}
	return t.results, t.bs, t.err
}

// Deferred reports whether the session pays at Wait (NewAsync).
func (d *Local) Deferred() bool { return d.deferred }

// Stats snapshots the dispatcher counters.
func (d *Local) Stats() Stats { return d.box.snapshot() }

// Close is a no-op: a Local dispatcher holds no resources.
func (d *Local) Close() {}
