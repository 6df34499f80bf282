package dispatch

import (
	"slices"
	"sort"

	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/sqldb"
)

// windowCap bounds how many statements a demand-closed shared window
// accumulates before it closes on its own (a demand — any session waiting
// on one of its tickets — closes it earlier). With a session quorum
// configured (SetWindow), windows are bounded by the quorum instead and the
// cap does not apply.
const windowCap = 256

// Hub is the server-side accumulation window shared by the Shared
// dispatchers of concurrent sessions (ROADMAP "cross-request batching").
// Read-only batches submitted by any session collect in windows; when a
// window closes, statements that are identical across sessions collapse to
// one execution, the pipeline stages (batch merging) rewrite the combined
// batch, and it executes in a single round trip on the hub's own
// connection. Results are then demultiplexed back to every contributing
// session.
//
// Window close is governed by a VIRTUAL-TIME policy (SetWindow): it
// depends only on the sessions' own progress — which batch each session
// has reached, and the virtual arrival times stamped by their simulated
// clocks — never on the host's wall clock. An earlier design kept windows
// open for a host-timed grace period so concurrent submitters could meet;
// that made window counts, coalescing stats, and therefore the
// shared-dispatch throughput numbers host-speed-dependent and CI-flaky.
// Under the virtual-time policy two identical runs produce identical
// windows, bit for bit, on any host — and the wallclock analyzer in
// internal/lint now rejects any reintroduction of host timers here at
// vet time.
//
// A Hub is safe for concurrent use; the window mutex serializes closes.
type Hub struct {
	conn   *driver.Conn
	stages []Stage
	// retry is the recovery policy for window executions (SetRetry); the
	// zero value disables recovery. Read under box.mu by window closes.
	retry RetryPolicy

	// expected is the session quorum (SetWindow): with expected > 0, each
	// session's j-th read batch since the last drain joins window
	// generation j, and generation j closes exactly when all expected
	// sessions have contributed their j-th batch. Zero (the default) keeps
	// the single-session policy: one accumulating window, closed by the
	// first demand or the statement cap.
	expected int

	box statsBox

	// tr/track are the hub's tracer and exporter track (SetTracer),
	// guarded by box.mu like the window state. A window is a hub-level
	// event with many contributing sessions, so its span is a root on the
	// hub's own track; each contributing batch additionally records an
	// entry span under its session's flush context.
	tr    *obs.Tracer
	track string

	// Window state, guarded by box.mu (closes hold it across execution so
	// a closing session acts for everyone racing it).
	open      *window         // the accumulating window (expected == 0)
	gens      map[int]*window // open generations (expected > 0)
	nextGen   map[*Shared]int // each session's next generation index
	nextClose int             // lowest generation not yet closed
	owners    int             // sessions registered (owner ids handed out)
}

// window is one accumulation of batches awaiting a combined execution.
type window struct {
	entries []*windowEntry
	stmts   int
}

// windowEntry is one session's batch waiting in a window, with the routing
// of its statements into the combined batch.
type windowEntry struct {
	t      *Ticket
	owner  *Shared
	routes []int // per original statement: index into the combined batch
	intro  int   // statements this entry introduced (first occurrence)
}

// NewHub creates a shared accumulation window over a dedicated connection.
// The stages run once per window over the combined cross-session batch;
// their own counters (merge.Stats) are the window-level record of what they
// did.
func NewHub(conn *driver.Conn, stages ...Stage) *Hub {
	return &Hub{conn: conn, stages: stages}
}

// Stats snapshots hub-level counters (windows closed, statements coalesced
// across sessions, statements actually executed).
func (h *Hub) Stats() Stats { return h.box.snapshot() }

// SetTracer attaches a tracer for window spans on the given exporter
// track. Call it before sessions start submitting.
func (h *Hub) SetTracer(tr *obs.Tracer, track string) {
	h.box.mu.Lock()
	defer h.box.mu.Unlock()
	h.tr = tr
	h.track = track
}

// SetRetry installs the recovery policy for window executions; Shared
// front ends created from this hub after the call inherit it for their
// write-barrier batches. Call before sessions start submitting.
func (h *Hub) SetRetry(p RetryPolicy) {
	h.box.mu.Lock()
	defer h.box.mu.Unlock()
	h.retry = p
}

// SetWindow configures the virtual-time accumulation policy: with
// `expected` > 0 (typically the number of concurrent sessions), each
// session's j-th read batch joins window generation j and the generation
// closes exactly when all expected sessions have contributed — a trigger
// driven purely by session progress on the simulated timeline, so window
// contents and stats are deterministic. A session demanding a result
// blocks until its window's quorum fills; the policy therefore assumes
// sessions replay symmetric workloads (the lockstep throughput harness) or
// drain explicitly with CloseWindow. The default (0) closes on first
// demand — correct for a single session, where there is nobody to wait
// for.
func (h *Hub) SetWindow(expected int) {
	h.box.mu.Lock()
	defer h.box.mu.Unlock()
	h.expected = expected
}

// register hands out the owner id that orders a session's entries inside a
// window (virtual-arrival ties break on it, so creation order — not
// goroutine scheduling — decides).
func (h *Hub) register(s *Shared) int {
	h.box.mu.Lock()
	defer h.box.mu.Unlock()
	h.owners++
	return h.owners
}

// add appends a read-only batch: to the session's current generation under
// a quorum policy (closing every generation whose quorum is now full), or
// to the single accumulating window otherwise (closing at the statement
// cap).
func (h *Hub) add(t *Ticket, owner *Shared) {
	h.box.mu.Lock()
	defer h.box.mu.Unlock()
	e := &windowEntry{t: t, owner: owner}
	if h.expected > 0 {
		if h.gens == nil {
			h.gens = make(map[int]*window)
			h.nextGen = make(map[*Shared]int)
		}
		g := h.nextGen[owner]
		if g < h.nextClose {
			// A session that fell behind the close frontier (registered
			// after the quorum was configured, or past the expected count)
			// joins the lowest open generation instead of resurrecting a
			// closed one.
			g = h.nextClose
		}
		h.nextGen[owner] = g + 1
		w := h.gens[g]
		if w == nil {
			w = &window{}
			h.gens[g] = w
		}
		w.entries = append(w.entries, e)
		w.stmts += len(t.stmts)
		h.closeReadyLocked()
		return
	}
	if h.open == nil {
		h.open = &window{}
	}
	h.open.entries = append(h.open.entries, e)
	h.open.stmts += len(t.stmts)
	if h.open.stmts >= windowCap {
		w := h.open
		h.open = nil
		h.closeWindowLocked(w, -1)
	}
}

// closeReadyLocked closes full generations in order. Generations fill in
// order too — a session reaches its j+1st batch only after its j-th — so
// the loop normally closes at most the generation the caller just
// completed.
func (h *Hub) closeReadyLocked() {
	for {
		w := h.gens[h.nextClose]
		if w == nil || len(w.entries) < h.expected {
			return
		}
		gen := h.nextClose
		delete(h.gens, gen)
		h.nextClose++
		h.closeWindowLocked(w, gen)
	}
}

// waitForTicket blocks until t completes. Under a quorum policy the close
// is the quorum's job — the laggard sessions' own submissions fill the
// window — so the demander just parks on the ticket; there is no wall-
// clock grace anywhere. Without a quorum the demander closes the window
// itself.
func (h *Hub) waitForTicket(t *Ticket) {
	h.box.mu.Lock()
	expected := h.expected
	h.box.mu.Unlock()
	if expected == 0 {
		select {
		case <-t.done:
			return
		default:
			h.CloseWindow()
		}
	}
	<-t.done
}

// CloseWindow executes every open window, in generation order, filling
// each contributing ticket, and realigns the generation counters so the
// next accumulation starts a fresh round. Sessions call it through Wait
// (demand-driven close, quorum-less hubs only) and write barriers; the
// harness calls it to drain speculative reads between lockstep rounds.
func (h *Hub) CloseWindow() {
	h.box.mu.Lock()
	defer h.box.mu.Unlock()
	if w := h.open; w != nil {
		h.open = nil
		h.closeWindowLocked(w, -1)
	}
	// Close open generations lowest-first by scanning the key set, not by
	// counting up from nextClose: a session beyond the quorum (more
	// front-ends registered than SetWindow expected) can repopulate a
	// generation below nextClose, which a counting loop would never reach.
	for len(h.gens) > 0 {
		lowest := -1
		for g := range h.gens {
			if lowest == -1 || g < lowest {
				lowest = g
			}
		}
		w := h.gens[lowest]
		delete(h.gens, lowest)
		h.closeWindowLocked(w, lowest)
	}
	h.nextClose = 0
	if h.nextGen != nil {
		clear(h.nextGen)
	}
}

// closeWindowLocked coalesces, executes, and demultiplexes one window.
// gen is the quorum generation being closed, or -1 for demand- and
// cap-triggered closes (the quorum-less policies have no generations).
func (h *Hub) closeWindowLocked(w *window, gen int) {
	entries := w.entries
	if len(entries) == 0 {
		return
	}

	// Deterministic window order: entries sort by the virtual arrival time
	// their session's simulated clock stamped at Submit, with ties broken
	// by session creation order — never by which goroutine reached the hub
	// first. Coalescing attribution (who introduced a statement, who hit
	// it) is therefore reproducible run to run.
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].t.arrival != entries[j].t.arrival {
			return entries[i].t.arrival < entries[j].t.arrival
		}
		return entries[i].owner.id < entries[j].owner.id
	})

	// Coalesce: identical statements (driver.Stmt.Equal — the query store's
	// dedup rule) across and within the window's batches execute once.
	// Entries are walked in sorted order, so the combined batch respects
	// every session's own statement order.
	var combined []driver.Stmt
	var seen driver.StmtIndex
	arrival := entries[0].t.arrival
	totalIn := 0
	for _, e := range entries {
		if e.t.arrival > arrival {
			arrival = e.t.arrival
		}
		e.routes = make([]int, len(e.t.stmts))
		for i, st := range e.t.stmts {
			totalIn++
			idx, dup := seen.Add(combined, st)
			if !dup {
				combined = append(combined, st)
				e.intro++
			}
			e.routes[i] = idx
		}
	}

	// The window span is a root on the hub's own track: a window belongs
	// to every contributing session at once, so it cannot live under any
	// single page tree. It spans first contribution to completion; the
	// combined batch's execution spans parent under it.
	var wctx obs.Ctx
	if h.tr != nil {
		wctx = h.tr.Root(h.track, "window", "window", entries[0].t.arrival,
			obs.Arg{K: "gen", V: gen},
			obs.Arg{K: "entries", V: len(entries)},
			obs.Arg{K: "stmts_in", V: totalIn},
			obs.Arg{K: "coalesced", V: totalIn - len(combined)})
	}

	r := runBatch(h.conn, wctx, arrival, h.stages, combined, h.retry)
	wctx.End(r.done)

	// Window-level accounting: Windows and Coalesced count attempts, like
	// addRun's StmtsOut, so a failed window is visible rather than silently
	// under-reported.
	h.box.stats.Windows++
	h.box.stats.Coalesced += int64(totalIn - len(combined))
	h.box.stats.addRun(r)

	for _, e := range entries {
		t := e.t
		t.completeAt = r.done
		// The entry span lives in the session's own page tree (under its
		// flush context): this batch rode a shared window from its submit
		// to the window's completion, coalescing hits statements.
		if t.ctx.Enabled() {
			t.ctx.Child("window", "entry", t.arrival,
				obs.Arg{K: "gen", V: gen},
				obs.Arg{K: "intro", V: e.intro},
				obs.Arg{K: "hits", V: len(t.stmts) - e.intro}).End(r.done)
		}
		t.bs = BatchStats{Sent: e.intro}
		if r.err != nil {
			t.err = r.err
		} else {
			// Route the window's per-combined-statement results (and, for a
			// degraded window, failures) back onto this entry's statements: a
			// poisoned key fails exactly the sessions that asked for it.
			rs := make([]*sqldb.ResultSet, len(e.routes))
			var se []error
			for i, idx := range e.routes {
				rs[i] = r.results[idx]
				if r.stmtErrs != nil && r.stmtErrs[idx] != nil {
					if se == nil {
						se = make([]error, len(e.routes))
					}
					se[i] = r.stmtErrs[idx]
				}
			}
			t.results = rs
			t.stmtErrs = se
		}
		close(t.done)
	}
}

var _ Dispatcher = (*Shared)(nil)

// Shared is the per-session front end of a Hub: read-only batches go to
// the shared window, write-containing batches act as per-session barriers
// — this session's earlier window reads must complete first (so they keep
// their order relative to the write), then the batch executes on the
// session's own connection, preserving its transaction state.
type Shared struct {
	hub    *Hub
	conn   *driver.Conn
	stages []Stage
	retry  RetryPolicy
	box    statsBox
	id     int

	// lastWindow is this session's most recent window ticket — the batch a
	// write must barrier behind. Only the session's own thread touches it.
	lastWindow *Ticket
}

// NewShared creates a session front end over hub. The stages apply to this
// session's write-containing batches (which bypass the window); window
// batches use the hub's stages.
func NewShared(hub *Hub, conn *driver.Conn, stages ...Stage) *Shared {
	s := &Shared{hub: hub, conn: conn, stages: stages}
	s.id = hub.register(s)
	s.hub.box.mu.Lock()
	s.retry = hub.retry
	s.hub.box.mu.Unlock()
	return s
}

// SetRetry installs the recovery policy for this session's write-barrier
// batches (window batches use the hub's policy). Call before submitting.
func (s *Shared) SetRetry(p RetryPolicy) { s.retry = p }

// Hub returns the shared accumulation window this front end feeds.
func (s *Shared) Hub() *Hub { return s.hub }

// Submit routes the batch: reads accumulate in the shared window, writes
// barrier this session's window reads and execute on the session
// connection. Both return in session virtual time (completion is paid at
// Wait). Window entries record their spans under the connection's trace
// context when their window closes; write barriers record their execution
// spans directly.
func (s *Shared) Submit(stmts []driver.Stmt) *Ticket {
	t := &Ticket{stmts: stmts, arrival: s.conn.Clock().Now(), ctx: s.conn.TraceCtx(), done: make(chan struct{})}
	if !containsWrite(stmts) {
		s.box.mu.Lock()
		s.box.addSubmit(len(stmts), true)
		s.box.mu.Unlock()
		// The window reads the batch when it closes, after the caller may
		// have reused the slice for its next batch: park a copy.
		t.stmts = slices.Clone(stmts)
		s.lastWindow = t
		s.hub.add(t, s)
		return t
	}

	// Per-session barrier: everything this session put in the window was
	// registered before the write, so it must execute first. Under a
	// quorum policy the barrier waits for the window to fill (the
	// deterministic close); a quorum-less hub closes it now.
	if lw := s.lastWindow; lw != nil {
		select {
		case <-lw.done:
		default:
			s.hub.waitForTicket(lw)
		}
	}
	// The write has not published yet (its ticket completes below), so the
	// recovery loop may retry it freely: injected failures fire before
	// execution, and a real execution error is permanent — it surfaces
	// exactly once, here.
	s.box.runTicket(t, s.conn, s.stages, s.retry, true)
	close(t.done)
	return t
}

// Wait blocks for the ticket's results — closing its window if this hub
// closes on demand — and pays the completion time the session has not
// already overlapped with compute.
func (s *Shared) Wait(t *Ticket) ([]*sqldb.ResultSet, BatchStats, error) {
	select {
	case <-t.done:
	default:
		s.hub.waitForTicket(t)
	}
	return s.box.settle(s.conn.Clock(), t)
}

// Deferred reports that Submit returns before execution completes.
func (s *Shared) Deferred() bool { return true }

// Stats snapshots this session front end's counters; hub-wide window
// counters live on Hub.Stats.
func (s *Shared) Stats() Stats { return s.box.snapshot() }

// Close is a no-op: the hub outlives its front ends, and any batches this
// session left in the window execute when the window next closes.
func (s *Shared) Close() {}
