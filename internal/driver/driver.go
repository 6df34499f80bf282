// Package driver provides the client/server boundary of the reproduction:
// a database server wrapping the SQL engine with a per-query cost model,
// and a client connection that ships statements across a simulated network
// link. The connection offers both the conventional one-statement-per-round-
// trip API (what the original applications use) and ExecBatch, the
// reproduction of Sloth's extended JDBC driver that issues many statements
// in a single round trip and executes the read statements in parallel
// server-side (paper Sec. 5).
package driver

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
	"repro/internal/sqldb/plan"
	"repro/internal/sqldb/sqlparse"
)

// Stmt is one statement with its positional arguments, built by Prepare:
// Parsed is its AST and Args are canonical (sqldb.NormalizeArgs). Every
// layer below — the query store's read/write classification, the merge
// analyzer, the server's cost loop and shard mask, the engine — reads
// Parsed and nothing parses the text again. A batch carrying a Stmt
// without Parsed fails before anything executes. Parsed never takes part
// in statement identity (identity.go).
type Stmt struct {
	SQL    string
	Args   []sqldb.Value
	Parsed sqlparse.Statement
}

// Prepare builds the statement for sql with args: it parses the text
// through the process-wide interner (plan.ParseCached), so each distinct
// text is parsed once per run, and copies args to their canonical values
// only when some are not (sqldb.NormalizeArgs). A malformed statement
// returns the parse error and no Stmt.
func Prepare(sql string, args ...sqldb.Value) (Stmt, error) {
	parsed, err := plan.ParseCached(sql)
	if err != nil {
		return Stmt{}, fmt.Errorf("driver: %w", err)
	}
	return Stmt{SQL: sql, Args: sqldb.NormalizeArgs(args), Parsed: parsed}, nil
}

// CostModel prices server-side query execution on the virtual clock. The
// defaults approximate a warm in-memory MySQL instance: a fixed per-query
// overhead plus a per-row scan cost. BatchDispatch is the (small) marginal
// cost of each extra statement in a batch; batched reads otherwise run in
// parallel so a batch costs the max of its members, not the sum.
type CostModel struct {
	PerQuery      time.Duration
	PerRow        time.Duration
	BatchDispatch time.Duration
}

// DefaultCostModel mirrors the calibration described in DESIGN.md.
func DefaultCostModel() CostModel {
	return CostModel{
		PerQuery:      60 * time.Microsecond,
		PerRow:        700 * time.Nanosecond,
		BatchDispatch: 6 * time.Microsecond,
	}
}

// queryCost prices a single executed statement.
func (m CostModel) queryCost(rs *sqldb.ResultSet) time.Duration {
	rows := rs.RowsScanned
	if rows == 0 {
		rows = rs.RowsAffected
	}
	return m.PerQuery + time.Duration(rows)*m.PerRow
}

// ServerStats snapshots server-side accounting.
type ServerStats struct {
	Queries int64
	Batches int64
	// Rows is the total physical rows the executor visited. Batch merging
	// (internal/merge) reduces Queries while leaving Rows essentially
	// unchanged — the row work is the same, the per-statement overheads are
	// what disappear — so the pair makes the optimization legible in the
	// experiment reports.
	Rows int64
	// DBTime is total virtual time charged for query execution.
	DBTime time.Duration
	// QueueWait is total virtual time batches spent queued behind other
	// batches for server capacity (only nonzero under concurrent sessions).
	QueueWait time.Duration
	// WorkerBatches attributes batch placement per DB worker lane
	// (SetWorkers): WorkerBatches[i] is how many batches lane i executed.
	// Lanes are shard-major (lane = shard*K + w), so a shard's totals are
	// the sum over its K lanes.
	WorkerBatches []int64
	// WorkerBusy is the virtual execution time each lane accumulated —
	// together with WorkerBatches it makes the occupancy model's load
	// balance legible to the driver tests.
	WorkerBusy []time.Duration
	// WorkerWall is the real (host) execution time each worker slot spent
	// running snapshot read batches — the wall-clock shadow of the virtual
	// WorkerBusy (benchmark/ reports it as driver.worker_wall_share).
	WorkerWall []time.Duration
	// SnapBatches counts batches that took the parallel snapshot-read path
	// (every statement a SELECT) rather than the serialized path.
	SnapBatches int64
	// FaultDrops counts batches the fault plane failed at a shard before
	// execution: scheduled outages and injected drops (preExecFault).
	FaultDrops int64
	// RetiredWall is always zero: the pool is sized before the first batch
	// and never resized, so no wall time outlives its worker slot. It stays
	// only because benchmark/ still adds it to sum(WorkerWall).
	RetiredWall time.Duration
}

// Server fronts an engine.DB. It is safe for concurrent use by many
// connections: statement execution serializes on the storage lock, stats
// and the occupancy timeline are mutex-guarded, and the engine sessions
// are the server's — one shared by every serial batch, one per DB worker
// for read batches.
//
// The server no longer advances its clock directly: execution is PRICED
// here (occupancy + cost model) but the time is PAID by the connection
// that waits for the batch (ExecBatch / the dispatch layer), which is
// what lets deferred dispatch overlap execution with app compute. The
// clock parameter is retained as the server's home timeline for future
// server-side background work.
type Server struct {
	db    *engine.DB
	clock netsim.Clock
	cost  CostModel
	// sess runs every batch that is not all SELECTs, for every connection.
	// It holds only SELECT scratch, which it touches under the store's
	// writer mutex, so sharing it is safe (engine.Session).
	sess *engine.Session

	// faults is the installed deterministic fault plane (SetFaults); nil —
	// the default — means infallible execution and a zero-cost exec path.
	// Set between replays only: the exec path reads it without locking.
	faults *faults.Plane

	mu    sync.Mutex
	stats ServerStats
	// queueWait is the distribution of the waits QueueWait sums, one
	// observation per batch (occupy), for the percentile reports.
	queueWait *obs.Histogram
	// lanes holds the busy timeline of each DB worker queue — the
	// multi-queue occupancy model for concurrent sessions (the paper's
	// server runs a pool of DB worker threads; SetWorkers sizes it). A batch
	// arriving at virtual time t is placed on the lane in its group that
	// can start it earliest and starts at the first instant >= t when that
	// lane is idle for the batch's duration; with one session and one
	// worker the lane is always idle at arrival and the model collapses to
	// the original serial accounting.
	//
	// With a sharded store the slice is shard-major: shards × K lanes,
	// lane shard*K+w being shard's worker w. A batch occupies one lane on
	// every shard its statements touch (per the plan router's mask) for an
	// equal share of its cost, and starts at the earliest instant all its
	// chosen lanes are simultaneously free — a scatter waits for its
	// slowest shard. At shards == 1 one lane is chosen and the share is
	// the full cost.
	lanes []laneBusy

	// shards is the occupancy model's shard dimension, mirroring the
	// engine's store (NewServer reads it once; stores never resize).
	shards int

	// slots is the execution-side worker pool matching the occupancy model:
	// a channel preloaded with one worker per lane. A read-only batch takes a
	// worker, executes its compiled plans against an MVCC snapshot
	// concurrently with other holders, and gives the worker back. Writes
	// never take one — they serialize on the storage lock as before.
	// Replaced only by SetWorkers, before the first batch.
	slots chan *worker

	// arenas are the result arenas released connections gave back, for
	// the next connection's first batch to draw (guarded by mu).
	arenas []*sqldb.Arena
}

// worker is one DB worker slot: its index into the per-worker stats and the
// snapshot session it runs every read batch on, re-pinned per batch, whose
// plan scratch those batches' SELECTs work in. Only the goroutine holding
// the worker (between taking it from slots and giving it back) touches it.
type worker struct {
	idx  int
	sess *engine.SnapSession // nil until the worker's first batch
}

// busySpan is one half-open busy interval [from, to) on a lane's virtual
// timeline.
type busySpan struct{ from, to time.Duration }

// laneBusy is one DB worker lane's occupancy: disjoint busy spans sorted
// by start. Connections outside an Order run concurrently in HOST time, so
// their batches do not reach the server in virtual-time order; a single
// busy horizon would make a batch that merely arrives late in host time
// queue behind a session whose virtual clock is far ahead — phantom wait
// charged for a lane that is actually idle at the batch's virtual arrival.
// Keeping the idle gaps lets such a batch backfill: it starts at the
// earliest instant at or after its arrival when the lane is free for its
// whole duration, so QueueWait measures real capacity conflicts only.
type laneBusy struct{ spans []busySpan }

// free reports the earliest start >= from at which the lane is
// continuously idle for dur. Spans are sorted and disjoint, so their ends
// are sorted too: the first span that can conflict is found by binary
// search, and from there a forward pass works because each overlap pushes
// the candidate window right, never left. A batch arriving past the lane's
// last span — every batch of a single session — costs O(log spans).
func (l *laneBusy) free(from, dur time.Duration) time.Duration {
	i := sort.Search(len(l.spans), func(i int) bool { return l.spans[i].to > from })
	for _, sp := range l.spans[i:] {
		if sp.from >= from+dur {
			break
		}
		from = sp.to
	}
	return from
}

// insert marks [from, from+dur) busy, coalescing with touching spans.
func (l *laneBusy) insert(from, dur time.Duration) {
	if dur <= 0 {
		return
	}
	to := from + dur
	i := sort.Search(len(l.spans), func(i int) bool { return l.spans[i].from >= from })
	if i > 0 && l.spans[i-1].to >= from {
		i--
		from = l.spans[i].from
		if l.spans[i].to > to {
			to = l.spans[i].to
		}
	}
	j := i
	for j < len(l.spans) && l.spans[j].from <= to {
		if l.spans[j].to > to {
			to = l.spans[j].to
		}
		j++
	}
	if j == i {
		l.spans = append(l.spans, busySpan{})
		copy(l.spans[i+1:], l.spans[i:])
		l.spans[i] = busySpan{from, to}
		return
	}
	l.spans[i] = busySpan{from, to}
	l.spans = append(l.spans[:i+1], l.spans[j:]...)
}

// NewServer creates a server over db using the given clock and cost model.
// The server starts with one DB worker queue per storage shard; SetWorkers
// sizes the per-shard pool before the first batch.
func NewServer(db *engine.DB, clock netsim.Clock, cost CostModel) *Server {
	s := &Server{db: db, clock: clock, cost: cost, sess: db.NewSession(), shards: db.Store().NumShards(), queueWait: obs.NewHistogram()}
	s.SetWorkers(1)
	return s
}

// DB returns the underlying engine (for direct data loading in fixtures).
func (s *Server) DB() *engine.DB { return s.db }

// SetWorkers sizes the DB worker pool to k queues per shard (k < 1
// selects 1): the occupancy lanes, the execution slots and the per-worker
// stat slices. The pool is configured once, before the first batch — a
// deployment does not resize its server mid-run.
func (s *Server) SetWorkers(k int) {
	if k < 1 {
		k = 1
	}
	n := s.shards * k
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lanes = make([]laneBusy, n)
	s.stats.WorkerBatches = make([]int64, n)
	s.stats.WorkerBusy = make([]time.Duration, n)
	s.stats.WorkerWall = make([]time.Duration, n)
	s.slots = make(chan *worker, n)
	for i := 0; i < n; i++ {
		s.slots <- &worker{idx: i}
	}
}

// SetFaults installs plane as the server's fault schedule (nil
// uninstalls). Every connection sees it from its next batch on. Call
// between replays, not while batches are in flight: the exec path reads
// the plane pointer without locking.
func (s *Server) SetFaults(plane *faults.Plane) { s.faults = plane }

// preExecFault rolls the fault plane for a batch arriving at `arrival` and
// touching the shards in mask (0 = every shard), BEFORE it executes, so a
// failed attempt never has data effects and the dispatch layer may retry
// any batch — reads and pipelined writes alike — without risking double
// execution. On injection it returns the virtual time at which the failure
// is OBSERVED by the session (the retry layer schedules its backoff from
// this instant) and the fault:
//
//  1. link timeout — the request is lost in flight and the failure is
//     observed only after the timeout's wasted delay (the link has
//     already charged that delay to its own accounting);
//  2. per-shard outage/drop rolls — one wasted round trip, counted in
//     ServerStats.FaultDrops.
func (s *Server) preExecFault(link *netsim.Link, arrival time.Duration, reqBytes int, mask uint64) (time.Duration, error) {
	if delay, err := link.TripFault(s.faults, arrival); err != nil {
		return arrival + delay, err
	}
	for sh := 0; sh < s.shards; sh++ {
		if mask != 0 && mask&(1<<uint(sh)) == 0 {
			continue
		}
		if err := s.faults.ShardFault(sh, arrival); err != nil {
			s.mu.Lock()
			s.stats.FaultDrops++
			s.mu.Unlock()
			link.Charge(reqBytes, 0)
			return arrival + link.RTT(), err
		}
	}
	return 0, nil
}

// QueueWaits returns the per-batch queue-wait distribution (live: it
// keeps observing as batches arrive).
func (s *Server) QueueWaits() *obs.Histogram { return s.queueWait }

// Stats snapshots the server counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.WorkerBatches = append([]int64(nil), s.stats.WorkerBatches...)
	st.WorkerBusy = append([]time.Duration(nil), s.stats.WorkerBusy...)
	st.WorkerWall = append([]time.Duration(nil), s.stats.WorkerWall...)
	return st
}

// stmtTrace is one statement's slot in a batch's server-time layout,
// computed only when tracing: off/dur are relative to the batch's start on
// its DB worker (the occupy start shifts them to absolute virtual time).
type stmtTrace struct {
	off  time.Duration
	dur  time.Duration
	path string
	rows int64
}

// readOnly reports whether every statement is a SELECT.
func readOnly(stmts []Stmt) bool {
	for _, st := range stmts {
		if _, ok := st.Parsed.(*sqlparse.SelectStmt); !ok {
			return false
		}
	}
	return true
}

// stmtExec executes one parsed statement, taking its result and projected
// rows from the arena, and, when withPath is set, names its access path:
// engine.Session.ExecPrepared or SnapSession.ExecSelectIn.
type stmtExec func(a *sqldb.Arena, sql string, st sqlparse.Statement, args []sqldb.Value, withPath bool) (*sqldb.ResultSet, string, error)

// priceStmts is the one statement loop: it runs each statement through exec
// in order and prices the batch. Writes cost their own time in order;
// consecutive runs of read statements execute "in parallel", costing the
// maximum member cost plus a dispatch cost per statement (the behaviour of
// the extended driver in Sec. 5). With traced set it additionally returns
// the per-statement layout mirroring that cost math: reads start where
// their parallel group stood, writes after the group they closed. An
// execution error at statement i surfaces after statements 0..i-1 have
// executed. Returns the results, taken with their list from the arena a,
// the batch's server time, the rows visited, and the layout.
func (s *Server) priceStmts(exec stmtExec, a *sqldb.Arena, stmts []Stmt, traced bool) ([]*sqldb.ResultSet, time.Duration, int64, []stmtTrace, error) {
	results := a.List(len(stmts))
	var layout []stmtTrace
	if traced {
		layout = make([]stmtTrace, 0, len(stmts))
	}
	var total, parallelMax time.Duration
	var rowsVisited int64
	for _, st := range stmts {
		rs, path, err := exec(a, st.SQL, st.Parsed, st.Args, traced)
		if err != nil {
			return nil, 0, 0, nil, err
		}
		cost := s.cost.queryCost(rs)
		rowsVisited += int64(rs.RowsScanned)
		write := sqlparse.IsWrite(st.Parsed)
		if write {
			// Writes serialize: close the current parallel group first.
			total += parallelMax
			parallelMax = 0
		}
		if traced {
			layout = append(layout, stmtTrace{off: total, dur: cost, path: path, rows: int64(rs.RowsScanned)})
		}
		if write {
			total += cost
		} else {
			parallelMax = max(parallelMax, cost)
			total += s.cost.BatchDispatch
		}
		results = append(results, rs)
	}
	return results, total + parallelMax, rowsVisited, layout, nil
}

// execBatch runs the statements for one connection through priceStmts on
// one of two executors and merges the outcome into the server's stats. A
// batch whose every statement parses to a SELECT takes a DB worker slot and
// runs against one pinned MVCC snapshot, concurrently with other read
// batches; only the slot semaphore and the stats merge serialize. Anything
// else runs on the server's session under the store lock, statement by
// statement. The pricing loop's write arm is never taken on a read-only
// batch, so the virtual timeline — and with it every golden page — is
// identical whichever executor a batch gets.
func (s *Server) execBatch(a *sqldb.Arena, stmts []Stmt, traced bool) ([]*sqldb.ResultSet, time.Duration, []stmtTrace, error) {
	if !readOnly(stmts) {
		results, total, rowsVisited, layout, err := s.priceStmts(s.sess.ExecPrepared, a, stmts, traced)
		if err != nil {
			return nil, 0, nil, err
		}
		s.mu.Lock()
		s.addBatchLocked(len(stmts), rowsVisited, total)
		s.mu.Unlock()
		return results, total, layout, nil
	}

	w := <-s.slots
	//slothvet:allow wallclock(host-side wall stats: measures real multicore speedup, never feeds virtual time)
	wallStart := time.Now()
	if w.sess == nil {
		w.sess = s.db.BeginSnapshot()
	} else {
		w.sess.Repin()
	}
	results, total, rowsVisited, layout, err := s.priceStmts(w.sess.ExecSelectIn, a, stmts, traced)
	w.sess.Close()
	//slothvet:allow wallclock(host-side wall stats: measures real multicore speedup, never feeds virtual time)
	wall := time.Since(wallStart)
	s.slots <- w
	if err != nil {
		return nil, 0, nil, err
	}

	s.mu.Lock()
	s.addBatchLocked(len(stmts), rowsVisited, total)
	s.stats.SnapBatches++
	s.stats.WorkerWall[w.idx] += wall
	s.mu.Unlock()
	return results, total, layout, nil
}

// takeArena hands a connection's first batch a released arena, or a new
// one with empty slabs.
func (s *Server) takeArena() *sqldb.Arena {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.arenas)
	if n == 0 {
		return new(sqldb.Arena)
	}
	a := s.arenas[n-1]
	s.arenas[n-1], s.arenas = nil, s.arenas[:n-1]
	return a
}

// addBatchLocked merges one executed batch into the server counters. The
// caller holds s.mu.
func (s *Server) addBatchLocked(stmts int, rowsVisited int64, total time.Duration) {
	s.stats.Queries += int64(stmts)
	s.stats.Batches++
	s.stats.Rows += rowsVisited
	s.stats.DBTime += total
}

// occupy reserves server capacity for a batch arriving at the given virtual
// time. mask is the bitset of shards the batch touches (0 = every shard; on
// an unsharded server there is only the one). Each touched shard is
// charged an equal SHARE of the cost (every shard holds 1/n of the table,
// so a scatter's per-shard work divides by the shards it touches) on the
// lane in its group that can start the batch earliest (ties break to the
// lowest index). The batch starts at the earliest instant at or after its
// arrival when every chosen lane is simultaneously idle for the share —
// idle gaps backfill, so the wait measures real capacity conflicts, and a
// scatter waits for its slowest shard. The batch's own completion is
// still start + the FULL cost: the session's virtual timeline is priced
// exactly as the unsharded server would price it, keeping goldens
// shard-count-independent, and sharding shows up only in the occupancy a
// batch leaves behind — other sessions queue behind the share, not the
// whole cost. The wait is attributed to ServerStats.QueueWait and the
// queue-wait histogram once, and the placement to WorkerBatches/WorkerBusy per lane. Returns the start
// time, the per-lane share, and the chosen lanes appended to the caller's
// buffer (lanes[0], the lowest shard's, is the primary for trace
// attribution). At shards == 1 this is the flat K-queue model with
// backfill: one lane chosen, share == cost.
func (s *Server) occupy(arrival, cost time.Duration, mask uint64, lanes []int) (time.Duration, time.Duration, []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := len(s.lanes) / s.shards
	touched := 0
	for sh := 0; sh < s.shards; sh++ {
		if mask == 0 || mask&(1<<uint(sh)) != 0 {
			touched++
		}
	}
	share := cost
	if touched > 1 {
		share = cost / time.Duration(touched)
	}
	// No lane can start the batch before its own earliest slot, so the
	// latest of the chosen lanes' slots is where the common start begins.
	start := arrival
	for sh := 0; sh < s.shards; sh++ {
		if mask != 0 && mask&(1<<uint(sh)) == 0 {
			continue
		}
		base := sh * k
		w := base
		best := s.lanes[base].free(arrival, share)
		for i := base + 1; i < base+k; i++ {
			if t := s.lanes[i].free(arrival, share); t < best {
				best, w = t, i
			}
		}
		lanes = append(lanes, w)
		if best > start {
			start = best
		}
	}
	// With one lane that slot IS the start. With several, raising start past
	// one lane's busy span can land inside another's: iterate to the fixpoint
	// (start only moves right, so the loop is bounded by the span count).
	for len(lanes) > 1 {
		again := false
		for _, w := range lanes {
			if t := s.lanes[w].free(start, share); t > start {
				start, again = t, true
			}
		}
		if !again {
			break
		}
	}
	for _, w := range lanes {
		s.lanes[w].insert(start, share)
		s.stats.WorkerBatches[w]++
		s.stats.WorkerBusy[w] += share
	}
	s.stats.QueueWait += start - arrival
	s.queueWait.Observe(start - arrival)
	return start, share, lanes
}

// shardMask predicts the batch's shard bitset by asking the plan router
// per statement; any unroutable statement (scan, join, DDL, compile error)
// degrades the whole batch to 0 — every shard. Only meaningful when the
// store is sharded; the mask is advisory (it prices occupancy, never
// routes execution).
func (s *Server) shardMask(stmts []Stmt) uint64 {
	if s.shards <= 1 {
		return 0
	}
	var mask uint64
	s.db.Store().ReadLock()
	defer s.db.Store().ReadUnlock()
	for _, st := range stmts {
		m := s.db.StmtShardMask(st.SQL, st.Parsed, st.Args)
		if m == 0 {
			return 0
		}
		mask |= m
	}
	return mask
}

// laneName is the trace-track label of an occupancy lane. The unsharded
// spelling is kept byte-identical to the pre-sharding exporter so existing
// golden traces and dashboards keep working.
func (s *Server) laneName(lane int) string {
	if s.shards == 1 {
		return fmt.Sprintf("db-worker-%d", lane)
	}
	k := len(s.lanes) / s.shards
	return fmt.Sprintf("db-s%d-worker-%d", lane/k, lane%k)
}

// Conn is a client connection: a server reached across a link. It keeps
// no engine state of its own. It has one executing goroutine, matching
// JDBC connections; its counters are safe to read concurrently.
type Conn struct {
	srv  *Server
	link *netsim.Link
	// arena holds the result sets the connection's batches returned since
	// its first batch or its last Release; nil until then.
	arena *sqldb.Arena

	queriesSent atomic.Int64

	// traceCtx is the span context this connection's work records under,
	// and the only one a session holds: the page root while a load is in
	// flight (blocking calls — ExecBatch, Query — and the query store's
	// force and flush spans parent under it), the flush span while the
	// query store submits a batch (the dispatcher stamps it on the ticket).
	// Session goroutine only.
	traceCtx obs.Ctx

	// order is the connection's place in the Order it joined; nil when it
	// joined none.
	order *orderSlot
}

// Connect opens a connection to the server across link. The server keeps
// no record of its connections: the exec path hands the link whatever
// fault plane is installed at the time of each batch.
func (s *Server) Connect(link *netsim.Link) *Conn {
	return &Conn{srv: s, link: link}
}

// Link exposes the connection's network link (for stats and RTT sweeps).
func (c *Conn) Link() *netsim.Link { return c.link }

// Clock exposes the connection's virtual timeline (the link's clock).
func (c *Conn) Clock() netsim.Clock { return c.link.Clock() }

// SetTraceCtx installs the span context for this connection's work
// (session goroutine only; see the field comment).
func (c *Conn) SetTraceCtx(ctx obs.Ctx) { c.traceCtx = ctx }

// TraceCtx returns the installed span context (session goroutine only).
func (c *Conn) TraceCtx() obs.Ctx { return c.traceCtx }

// QueriesSent reports how many statements this connection has shipped.
func (c *Conn) QueriesSent() int64 { return c.queriesSent.Load() }

// Query executes one statement in its own round trip — the conventional
// driver behaviour used by the original (non-Sloth) applications. Like
// every result the connection returns, the result set stays valid until the
// connection's next Release.
func (c *Conn) Query(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	st, err := Prepare(sql, args...)
	if err != nil {
		return nil, err
	}
	results, err := c.ExecBatch([]Stmt{st})
	if err != nil {
		return nil, err
	}
	return results[0], nil
}

// Exec is the one batch entry point, and it does not block: it executes all
// statements now (server counters are charged, data effects land) but does
// NOT advance any clock. The batch is modeled as arriving at virtual time
// `arrival`; the returned completion time is when its single round trip
// finishes on the shared timeline — queueing behind earlier batches for
// server capacity, then paying server cost and link latency. Deferred
// dispatch strategies run the batch at Submit and pay (completion - now)
// only when the session actually waits, which is how app-server compute
// overlaps DB time on the virtual clock. A connection that joined an Order
// first parks here until its batch is the next in arrival order.
//
// When ctx records, the batch's round trip becomes an "exec" span under ctx
// holding the queue wait (if the batch queued for a DB worker), the server
// execution on the worker's own track with one child span per statement
// (laid out by the parallel-group cost math, stamped with rows and access
// path), and the link crossing. The virtual timeline is identical with
// tracing on or off — spans observe the simulation, never perturb it.
func (c *Conn) Exec(ctx obs.Ctx, arrival time.Duration, stmts []Stmt) ([]*sqldb.ResultSet, time.Duration, error) {
	if len(stmts) == 0 {
		return nil, arrival, nil
	}
	if c.order != nil {
		c.order.park(arrival)
	}
	reqBytes := 0
	for i, st := range stmts {
		if st.Parsed == nil {
			return nil, arrival, fmt.Errorf("driver: statement %d (%q) was not built by Prepare", i, st.SQL)
		}
		reqBytes += len(st.SQL) + 8
		for _, a := range st.Args {
			reqBytes += sqldb.SizeOf(a)
		}
	}
	traced := ctx.Enabled()
	// The shard mask is computed before execution (routing depends only on
	// statement keys, never on data effects of this batch) so the fault
	// plane can roll per touched shard; it prices occupancy below exactly
	// as the post-exec computation did.
	mask := c.srv.shardMask(stmts)
	if c.srv.faults != nil {
		if failAt, ferr := c.srv.preExecFault(c.link, arrival, reqBytes, mask); ferr != nil {
			if traced {
				ctx.Instant("fault", "exec", arrival, obs.Arg{K: "err", V: ferr.Error()})
			}
			return nil, failAt, ferr
		}
	}
	if c.arena == nil {
		c.arena = c.srv.takeArena()
	}
	results, dbCost, layout, err := c.srv.execBatch(c.arena, stmts, traced)
	if err != nil {
		if traced {
			ctx.Instant("error", "exec", arrival, obs.Arg{K: "err", V: err.Error()})
		}
		return nil, arrival, err
	}
	respBytes := 0
	for _, rs := range results {
		respBytes += rs.WireSize()
	}
	netCost := c.link.Charge(reqBytes, respBytes)
	// Stack room for the chosen lanes; a scatter wider than this spills to
	// the heap inside occupy's append.
	var laneBuf [8]int
	start, share, lanes := c.srv.occupy(arrival, dbCost, mask, laneBuf[:0])
	c.queriesSent.Add(int64(len(stmts)))
	done := start + dbCost + netCost
	if traced {
		ex := ctx.Child("exec", "batch", arrival, obs.Arg{K: "stmts", V: len(stmts)})
		if start > arrival {
			ex.Child("queue", "db-queue", arrival).End(start)
		}
		// The lane indexes decide only the exporter tracks (their Perfetto
		// lanes): the golden waterfall excludes tracks, so placement changes
		// under different -workers/-shards settings never change the golden
		// tree. The primary (lowest-shard) lane carries the per-statement
		// layout; additional occupied shards get one plain span each.
		dbArgs := []obs.Arg{{K: "stmts", V: len(stmts)}}
		if c.srv.shards > 1 {
			dbArgs = append(dbArgs, obs.Arg{K: "shards", V: len(lanes)})
		}
		db := ex.ChildTrack(c.srv.laneName(lanes[0]), "db", "batch", start, dbArgs...)
		for i := range layout {
			lt := &layout[i]
			db.Child("stmt", stmts[i].SQL, start+lt.off,
				obs.Arg{K: "path", V: lt.path},
				obs.Arg{K: "rows", V: lt.rows}).End(start + lt.off + lt.dur)
		}
		db.End(start + dbCost)
		for _, lane := range lanes[1:] {
			ex.ChildTrack(c.srv.laneName(lane), "db", "shard-exec", start).End(start + share)
		}
		ex.Child("net", "link", start+dbCost,
			obs.Arg{K: "req_b", V: reqBytes},
			obs.Arg{K: "resp_b", V: respBytes}).End(done)
		ex.End(done)
	}
	return results, done, nil
}

// Release ends the connection's request: every result set its batches
// returned since its first batch or its last Release is invalid from here
// on — one from the arena's slabs reads as cleared until reused — and the
// arena, its slabs grown toward this request's demand, goes back to the
// server for the next connection. The connection stays usable: its next
// batch draws an arena again. A connection that never releases allocates
// every result on its own once its arena's slabs are used up, so its
// results stay valid for as long as it is used.
func (c *Conn) Release() {
	if c.arena == nil {
		return
	}
	c.arena.Reset()
	c.srv.mu.Lock()
	c.srv.arenas = append(c.srv.arenas, c.arena)
	c.srv.mu.Unlock()
	c.arena = nil
}

// ExecBatch ships all statements to the server in one round trip, blocks
// until completion on the connection's timeline, and returns their result
// sets in order — the Sloth batch driver. Execution spans parent under the
// connection's installed trace context (SetTraceCtx).
func (c *Conn) ExecBatch(stmts []Stmt) ([]*sqldb.ResultSet, error) {
	clock := c.link.Clock()
	results, done, err := c.Exec(c.traceCtx, clock.Now(), stmts)
	if err != nil {
		return nil, err
	}
	netsim.AdvanceTo(clock, done)
	return results, nil
}
