package dispatch

import (
	"sync"

	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// DefaultAsyncDepth is the initial capacity of the async dispatcher's
// ticket queue — a sizing hint only. The queue grows past it rather than
// blocking Submit — a fixed-depth channel here once meant that a session
// submitting more than 16 flushes before its first Wait silently
// serialized on the dispatcher.
const DefaultAsyncDepth = 16

var _ Dispatcher = (*Async)(nil)

// Async is the pipelined-flush strategy: Submit stamps the batch with the
// session's current virtual time and hands it to a single worker goroutine,
// so the flush returns immediately and the session keeps computing while
// the batch crosses the simulated network and executes. Wait blocks until
// the worker finishes and advances the session clock only to the batch's
// completion time — compute the session performed between Submit and Wait
// is overlapped, not added (the async half of the paper's Sec. 5 server
// driver, ROADMAP "async/pipelined flushes").
//
// The single FIFO worker preserves statement order across batches, so
// write barriers hold exactly as in the synchronous strategy. The queue
// between Submit and the worker is unbounded: Submit never blocks, however
// many flushes a session issues before its first Wait (Stats.PeakQueue
// records the high-water mark).
type Async struct {
	conn  *driver.Conn
	clock netsim.Clock

	stages []Stage
	retry  RetryPolicy
	box    statsBox

	// Ticket queue, guarded by mu; nonEmpty signals the worker. Tickets
	// queue[head:] are waiting; a drained queue rewinds onto the same
	// backing array.
	mu       sync.Mutex
	nonEmpty *sync.Cond
	queue    []*Ticket
	head     int
	closed   bool

	wg        sync.WaitGroup
	closeOnce sync.Once
}

// NewAsync creates the asynchronous dispatcher and starts its worker. Close
// must be called to stop the worker.
func NewAsync(conn *driver.Conn, stages ...Stage) *Async {
	a := &Async{
		conn:   conn,
		clock:  conn.Clock(),
		stages: stages,
		queue:  make([]*Ticket, 0, DefaultAsyncDepth),
	}
	a.nonEmpty = sync.NewCond(&a.mu)
	a.wg.Add(1)
	go a.worker()
	return a
}

// next blocks until a ticket is queued or the dispatcher is closed and
// drained, popping in FIFO order.
func (a *Async) next() (*Ticket, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for len(a.queue) == 0 {
		if a.closed {
			return nil, false
		}
		a.nonEmpty.Wait()
	}
	t := a.queue[a.head]
	a.queue[a.head] = nil
	a.head++
	if a.head == len(a.queue) {
		a.queue, a.head = a.queue[:0], 0
	}
	return t, true
}

func (a *Async) worker() {
	defer a.wg.Done()
	for {
		t, ok := a.next()
		if !ok {
			return
		}
		a.box.runTicket(t, a.conn, a.stages, a.retry)
		close(t.done)
	}
}

// SetRetry installs the recovery policy (retry/degradation) for this
// dispatcher's batches. Call before submitting.
func (a *Async) SetRetry(p RetryPolicy) { a.retry = p }

// Submit enqueues the batch and returns immediately; it never blocks on
// queue capacity. Submitting after Close is a caller bug and panics (as
// the old closed-channel send did) rather than handing back a ticket no
// worker will ever complete.
func (a *Async) Submit(stmts []driver.Stmt) *Ticket {
	return a.SubmitCtx(obs.Ctx{}, stmts)
}

// SubmitCtx is Submit with a span context; the worker parents the batch's
// execution spans under it when it reaches the ticket.
func (a *Async) SubmitCtx(ctx obs.Ctx, stmts []driver.Stmt) *Ticket {
	a.box.addSubmit(len(stmts))
	t := &Ticket{stmts: stmts, arrival: a.clock.Now(), ctx: ctx, done: make(chan struct{})}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		panic("dispatch: Submit on closed Async dispatcher")
	}
	a.queue = append(a.queue, t)
	n := int64(len(a.queue) - a.head)
	a.mu.Unlock()
	a.nonEmpty.Signal()
	a.box.mu.Lock()
	if n > a.box.stats.PeakQueue {
		a.box.stats.PeakQueue = n
	}
	a.box.mu.Unlock()
	return t
}

// Wait blocks until the ticket's batch has executed, then pays only the
// completion time the session has not already overlapped with compute.
func (a *Async) Wait(t *Ticket) ([]*sqldb.ResultSet, BatchStats, error) {
	<-t.done
	return a.box.settle(a.clock, t)
}

// Deferred reports that Submit returns before execution completes.
func (a *Async) Deferred() bool { return true }

// Stats snapshots the dispatcher counters.
func (a *Async) Stats() Stats { return a.box.snapshot() }

// Close stops the worker after it drains in-flight batches. Tickets
// submitted before Close remain waitable.
func (a *Async) Close() {
	a.closeOnce.Do(func() {
		a.mu.Lock()
		a.closed = true
		a.mu.Unlock()
		a.nonEmpty.Signal()
		a.wg.Wait()
	})
}
