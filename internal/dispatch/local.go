package dispatch

import (
	"fmt"
	"sync"

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
	stage    Stage // nil for none
	retry    RetryPolicy
	deferred bool
	// ticket is the one ticket NewSync hands out, reset by every Submit (see
	// Ticket). NewAsync allocates one per batch: several are in flight at
	// once.
	ticket Ticket

	// mu guards stats and pending, which Stats reads from other goroutines.
	mu    sync.Mutex
	stats Stats
	// pending counts NewAsync tickets submitted and not yet charged by
	// Wait; stats.PeakQueue is its high-water mark.
	pending int64
}

// NewSync creates the synchronous dispatcher, running at most one stage.
func NewSync(conn *driver.Conn, stages ...Stage) *Local {
	return newLocal(conn, stages, false)
}

// NewAsync creates the pipelined-flush dispatcher, running at most one
// stage.
func NewAsync(conn *driver.Conn, stages ...Stage) *Local {
	return newLocal(conn, stages, true)
}

func newLocal(conn *driver.Conn, stages []Stage, deferred bool) *Local {
	if len(stages) > 1 {
		panic(fmt.Sprintf("dispatch: %d stages, but a dispatcher runs at most one", len(stages)))
	}
	d := &Local{conn: conn, deferred: deferred}
	if len(stages) == 1 {
		d.stage = stages[0]
	}
	return d
}

// SetRetry installs the retry policy for this dispatcher's batches. Call
// before submitting.
func (d *Local) SetRetry(p RetryPolicy) { d.retry = p }

// Submit executes the batch now, under the connection's current trace
// context (the submitting flush), and counts its submission and run under
// one acquisition of the lock; the returned ticket is already final. Under
// NewSync it is the dispatcher's own ticket, valid until the next Submit.
func (d *Local) Submit(stmts []driver.Stmt) *Ticket {
	clock := d.conn.Clock()
	t := &d.ticket
	if d.deferred {
		t = new(Ticket)
	}
	*t = Ticket{arrival: clock.Now()}
	r := runBatch(d.conn, d.conn.TraceCtx(), t.arrival, d.stage, stmts, d.retry)
	t.results, t.err = r.results, r.err
	t.completeAt = r.done
	t.bs = BatchStats{Sent: r.sent}
	d.mu.Lock()
	d.stats.StmtsIn += int64(len(stmts))
	if d.deferred {
		d.pending++
		d.stats.PeakQueue = max(d.stats.PeakQueue, d.pending)
	}
	d.stats.addRun(r)
	d.mu.Unlock()
	if !d.deferred {
		// The session pays the virtual time it observed — on terminal failure
		// too, where completeAt is the last failure-observation time (the
		// arrival for real engine errors, making this a no-op). A frozen clock
		// after a failure would replay the identical time-keyed fault rolls
		// forever.
		netsim.AdvanceTo(clock, t.completeAt)
	}
	return t
}

// Wait returns the ticket's results. Under NewAsync it first pays only the
// completion time the session has not already overlapped with compute,
// crediting the rest to OverlapSaved; a terminal failure still advances the
// session to the time the failure was observed (no overlap credit), for the
// same reason Submit does under NewSync.
func (d *Local) Wait(t *Ticket) ([]*sqldb.ResultSet, BatchStats, error) {
	if d.deferred {
		waited := netsim.AdvanceTo(d.conn.Clock(), t.completeAt)
		if !t.waited {
			t.waited = true
			d.mu.Lock()
			d.pending--
			if hidden := max(0, t.completeAt-t.arrival) - waited; t.err == nil && hidden > 0 {
				d.stats.OverlapSaved += hidden
			}
			d.mu.Unlock()
		}
	}
	if t.err != nil {
		return nil, t.bs, t.err
	}
	return t.results, t.bs, nil
}

// Deferred reports whether the session pays at Wait (NewAsync).
func (d *Local) Deferred() bool { return d.deferred }

// Stats snapshots the dispatcher counters.
func (d *Local) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Close is a no-op: a Local dispatcher holds no resources.
func (d *Local) Close() {}
