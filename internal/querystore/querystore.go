// Package querystore implements the query store at the core of Sloth
// (paper Sec. 3.3): the runtime component that accumulates queries issued
// during lazy evaluation into batches, executes a whole batch in a single
// round trip when any of its results is demanded, and caches result sets so
// repeated forces never re-issue a query.
//
// The store enforces the paper's semantics-preserving rules:
//
//   - RegisterQuery(read) appends to the current batch and returns an id;
//     if the identical statement — same SQL text, pairwise equal arguments
//     of the same type (driver.Stmt.Equal) — is already pending, the
//     existing id is returned (dedup within the batch).
//   - RegisterQuery(write) — every non-SELECT: INSERT, UPDATE, DELETE,
//     DDL — causes the current batch, including the write, to be sent
//     immediately, preserving statement order. (The paper also flushes on
//     COMMIT and ABORT; the engine has no transaction control, so each
//     statement is its own unit of atomicity.)
//   - GetResultSet(id) returns the cached result if the id's batch already
//     ran, and otherwise flushes the pending batch in one round trip.
//
// WHEN a flushed batch executes, and when the session pays for it, is
// delegated to a dispatch.Dispatcher (internal/dispatch): synchronously at
// the flush point (the paper's strategy), or at the flush point but paid
// only at force time so app compute overlaps the round trip on the virtual
// clock. The store's own contract is unchanged under either strategy:
// results per query id are identical, and a batch that failed reports its
// execution error at force time for every id it carried (deferred-error
// delivery).
// Under a deferred dispatcher, writes can additionally ride the pipeline
// as fire-and-forget tickets (Config.PipelineWrites, ExecPipelined): the
// write still flushes in statement order, but the session stops paying a
// blocking round trip per mutation; failures surface at the next read
// barrier or at Close, recorded against the write's id.
package querystore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/obs"
	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/thunk"
)

// QueryID identifies a registered query within its store.
type QueryID int64

// ErrUnknownQueryID is the typed sentinel behind "unknown query id"
// failures (a force of an id the store never issued or whose batch was
// discarded). Match with errors.Is — the rendered message keeps the
// historical "querystore: unknown query id <n>" spelling.
var ErrUnknownQueryID = errors.New("querystore: unknown query id")

// Config adjusts store behaviour. The zero value is the paper's
// configuration; the knobs exist for the ablation benchmarks.
type Config struct {
	// DisableDedup turns off within-batch duplicate elimination.
	DisableDedup bool
	// BatchCap, when positive, flushes the pending batch once it reaches
	// this many statements — the size-triggered execution strategy the
	// paper sketches as future work (Sec. 6.7).
	BatchCap int
	// Merge configures the batch query-merge optimizer (internal/merge):
	// when enabled, a flushed batch is rewritten so point-lookup SELECTs
	// that differ only in one equality value execute as a single IN-list
	// statement, and results are demultiplexed back per original query.
	// The optimizer runs as a pipeline stage of the dispatcher.
	Merge merge.Config
	// Dispatch selects the execution strategy for flushed batches. The
	// zero value (dispatch.KindSync) is the paper's blocking flush.
	Dispatch dispatch.Kind
	// Retry is the recovery policy installed on the store's dispatcher
	// (capped-backoff retry of injected transient failures plus degraded
	// per-statement execution; see dispatch.RetryPolicy). The zero value —
	// no recovery — leaves behaviour identical to a fault-free build.
	Retry dispatch.RetryPolicy
	// PipelineWrites lets mutating statements ride a deferred dispatcher
	// as fire-and-forget tickets (ExecPipelined): the write still flushes
	// the batch in order — per-session FIFO execution preserves
	// read-your-writes — but the session does not wait for its result.
	// Execution errors are delivered at the next read barrier (any force
	// that collects) or at Close, recorded against the write's QueryID.
	// Ignored under the synchronous dispatcher, whose writes already
	// surface errors at registration.
	PipelineWrites bool
	// Trace, when non-nil, records query-lifecycle spans (flush, force,
	// wait, dispatch, execution) on the virtual clock. Spans parent under
	// the context installed with SetTraceCtx (typically the page root the
	// web framework opens); with no context installed nothing records.
	Trace *obs.Tracer
	// TraceTrack is the exporter track (Perfetto lane) for this store's
	// session spans; empty selects "session".
	TraceTrack string
	// Record, when non-nil, observes every submitted batch (after dedup and
	// parse-once threading, before merge rewriting). benchmark/probes.go
	// uses it to capture the golden suites' real batch shapes for its
	// per-layer probes. The slice is the callback's to keep; statement Args
	// must be treated as read-only.
	Record func(stmts []driver.Stmt)
}

// Stats counts store activity for the experiment harness; the counters only
// grow, so callers measure an interval as a delta. What merging saved is the
// merger's to count (MergeStats).
type Stats struct {
	Registered    int64 // Register calls (after dedup)
	DedupHits     int64 // Register calls answered with an existing id
	Executed      int64 // statements actually sent to the database
	Batches       int64 // batches flushed
	MaxBatch      int   // largest batch size flushed (before merging)
	ForcedByWrite int64 // flushes triggered by a write registration
	// ThunkAllocs counts result thunks handed out by Lazy for this store.
	// Per-store (not process-global) so a page load's thunk count stays
	// deterministic when sessions run concurrently.
	ThunkAllocs int64
}

// inflight is one submitted batch whose results have not been collected.
// Ids are dense, so the batch carried first, first+1, ..., first+n-1. Under
// the synchronous dispatcher t is the dispatcher's one reused ticket; every
// synchronous flush collects before it returns, so it is never in flight
// beside another.
type inflight struct {
	t     *dispatch.Ticket
	first QueryID
	n     int
	ctx   obs.Ctx // the flush span the batch was submitted under
}

// Store is a per-request (per-session) query store; a session that serves
// many requests marks each boundary with EndRequest. It is not safe for
// concurrent use: Sloth's execution model is one request thread evaluating
// its own lazy computation, matching the paper's per-client batching.
type Store struct {
	conn   *driver.Conn
	cfg    Config
	disp   dispatch.Dispatcher
	merger *merge.Merger // nil unless cfg.Merge.Enabled
	// queue is the pending batch: queue[i] holds id nextID-len(queue)+i.
	// dedup indexes its reads by statement identity. results[id-base] is
	// id's result set once its batch ran; nil while it has not, or when it
	// failed (then errs has the id). Ids below base were released at a
	// request boundary or at Close. All three are borrowed from scratchPool
	// (held) at the first Register and given back at Close. errs is created
	// on first use.
	queue    []driver.Stmt
	dedup    driver.StmtIndex
	held     *scratch
	results  []*sqldb.ResultSet
	base     QueryID
	errs     map[QueryID]error
	inflight []inflight
	nextID   QueryID
	stats    Stats

	// traceCtx is the span context store activity records under — the
	// current page root while a load is in flight (webapp installs it).
	// The zero value disables recording.
	traceCtx obs.Ctx

	// fireAndForget marks pipelined-write ids (ExecPipelined) whose result
	// nobody will force; when such an id's batch fails, writeErrs carries
	// the error (one entry per failed batch) to the next read barrier or
	// Close so none is ever dropped.
	fireAndForget map[QueryID]struct{}
	writeErrs     []error

	// onClose are the release hooks registered with OnClose, run by the
	// next Close.
	onClose []func()
}

// scratch is a store's request scratch: the queue array, the dedup table
// and the results index. None is visible to a caller once the store is
// closed, so a closed store hands them to the next store to open instead of
// leaving them to the collector, and a per-request store registers into
// storage grown by earlier requests.
type scratch struct {
	queue   []driver.Stmt
	dedup   driver.StmtIndex
	results []*sqldb.ResultSet
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// New creates a query store over an established connection, building the
// configured dispatch pipeline.
func New(conn *driver.Conn, cfg Config) *Store {
	s := &Store{conn: conn, cfg: cfg}
	var stages []dispatch.Stage
	if cfg.Merge.Enabled {
		s.merger = merge.New(cfg.Merge)
		stages = append(stages, dispatch.MergeStage(s.merger))
	}
	newLocal := dispatch.NewSync
	if cfg.Dispatch == dispatch.KindAsync {
		newLocal = dispatch.NewAsync
	}
	local := newLocal(conn, stages...)
	local.SetRetry(cfg.Retry)
	s.disp = local
	return s
}

// NewWithDispatcher creates a store over a caller-built dispatcher
// (custom pipelines and tests). cfg.Dispatch and cfg.Merge are ignored:
// the caller's dispatcher already embodies them.
func NewWithDispatcher(conn *driver.Conn, cfg Config, disp dispatch.Dispatcher) *Store {
	return &Store{conn: conn, cfg: cfg, disp: disp}
}

// Close collects every in-flight batch — recording any deferred execution
// error against the ids it carried, exactly like a read barrier, so a
// pipelined write that failed after the last force is never dropped — and
// then closes the dispatcher. Close is the last delivery point: a pending
// pipelined-write error joins any batch error in the return value rather
// than being discarded. Close ends the request: the connection releases
// its results (driver.Conn.Release), so every result set the store handed
// out is invalid after Close — one from the arena reads as cleared until a
// later request reuses it — and its id reports ErrUnknownQueryID (an id
// whose batch failed keeps reporting that error).
// Statements still pending in the unsubmitted queue are discarded, as the
// paper's store does for speculative reads nobody forced; the queue array,
// dedup table and results index go back to a pool for the next store, and
// the hooks registered with OnClose run. A store used after Close starts
// again from empty scratch.
func (s *Store) Close() error {
	err := s.barrierErr(s.collect())
	s.disp.Close()
	s.conn.Release()
	s.base = s.nextID
	if s.held != nil {
		clear(s.queue[:cap(s.queue)]) // submitted batches stay behind len
		s.dedup.Reset()
		clear(s.results)
		*s.held = scratch{queue: s.queue[:0], dedup: s.dedup, results: s.results[:0]}
		scratchPool.Put(s.held)
		s.queue, s.dedup, s.results, s.held = nil, driver.StmtIndex{}, nil, nil
	}
	hooks := s.onClose
	s.onClose = nil
	for _, f := range hooks {
		f()
	}
	return err
}

// OnClose registers f to run at the store's next Close, after every
// registered before it. Each registration runs at most once: a store used
// after Close starts with no hooks. It is how request-scoped state kept
// beside the store (the ORM session's identity map) is given back when the
// request ends.
func (s *Store) OnClose(f func()) { s.onClose = append(s.onClose, f) }

// EndRequest marks a request boundary on a store that outlives one request
// (a long-lived session serving page after page): every resolved entry —
// cached result sets and recorded per-id execution errors — is released,
// so what the store retains is bounded by one request's queries rather
// than by its age. Forcing an id resolved before the boundary afterwards
// yields ErrUnknownQueryID. Work still in progress crosses the boundary
// untouched: statements pending in the queue, in-flight tickets (their
// results are cached when next collected), fire-and-forget bookkeeping,
// and latched pipelined-write errors, which the next barrier still
// delivers.
//
// Every resolved id is older than every id in flight, and those are older
// than the queue (DESIGN.md §4), so the boundary is one number: base.
func (s *Store) EndRequest() {
	s.base = s.nextID - QueryID(len(s.queue))
	if len(s.inflight) > 0 {
		s.base = s.inflight[0].first
	}
	clear(s.results)
	s.results = s.results[:0]
	clear(s.errs)
}

// Conn returns the underlying connection.
func (s *Store) Conn() *driver.Conn { return s.conn }

// Tracer returns the configured tracer (nil when tracing is off).
func (s *Store) Tracer() *obs.Tracer { return s.cfg.Trace }

// TraceTrack returns the exporter track for this store's session spans.
func (s *Store) TraceTrack() string {
	if s.cfg.TraceTrack == "" {
		return "session"
	}
	return s.cfg.TraceTrack
}

// SetTraceCtx installs the span context store activity parents under
// (the page root during a load; the zero Ctx detaches).
func (s *Store) SetTraceCtx(ctx obs.Ctx) { s.traceCtx = ctx }

// TraceCtx returns the installed span context.
func (s *Store) TraceCtx() obs.Ctx { return s.traceCtx }

// Dispatcher exposes the store's dispatch strategy (stats inspection).
func (s *Store) Dispatcher() dispatch.Dispatcher { return s.disp }

// Stats snapshots the store counters.
func (s *Store) Stats() Stats { return s.stats }

// MergeStats snapshots this store's merge stage counters (cumulative over
// the store's lifetime); the zero value when merging is disabled.
func (s *Store) MergeStats() merge.Stats {
	if s.merger == nil {
		return merge.Stats{}
	}
	return s.merger.Stats()
}

// Register adds a query to the store per the paper's RegisterQuery rules
// and returns its id. Write statements flush the batch immediately; under
// the synchronous dispatcher the returned id's result is then already
// available and execution errors surface here, while deferred dispatchers
// report them at force time.
func (s *Store) Register(sql string, args ...sqldb.Value) (QueryID, error) {
	// Lightweight keyword classification keeps registration off the full
	// parser: the statement is parsed once, server-side, at flush time.
	// Malformed SQL classifies as a write, flushes immediately, and the
	// execution error surfaces here.
	isWrite := sqlparse.IsWriteSQL(sql)
	st := driver.Stmt{SQL: sql, Args: args}
	if s.held == nil {
		s.held = scratchPool.Get().(*scratch)
		s.queue, s.dedup, s.results = s.held.queue, s.held.dedup, s.held.results
	}

	if !isWrite && !s.cfg.DisableDedup {
		if pos, dup := s.dedup.Add(s.queue, st); dup {
			s.stats.DedupHits++
			return s.nextID - QueryID(len(s.queue)-pos), nil
		}
	}

	id := s.nextID
	s.nextID++
	s.queue = append(s.queue, st)
	s.stats.Registered++
	if !isWrite {
		if s.cfg.BatchCap > 0 && len(s.queue) >= s.cfg.BatchCap {
			if err := s.flushForProgress("cap"); err != nil {
				return 0, err
			}
		}
		return id, nil
	}

	// Writes force the whole batch out now, in order, so updates are never
	// left lingering in the query store (Sec. 3.3).
	s.stats.ForcedByWrite++
	if err := s.flushForProgress("write"); err != nil {
		return 0, err
	}
	return id, nil
}

// flushForProgress is the flush used at write and batch-cap triggers: a
// deferred dispatcher only submits (the pipelined flush — app compute
// continues while the batch executes), while the synchronous dispatcher
// executes and surfaces errors here, exactly as before the pipeline
// existed.
func (s *Store) flushForProgress(trigger string) error {
	s.submit(trigger)
	if s.disp.Deferred() {
		return nil
	}
	return s.barrierErr(s.collect())
}

// ResultSet returns the result for id, flushing the pending batch in a
// single round trip if the result is not yet cached. An id whose batch
// failed returns that batch's execution error. A force that collects is
// also a read barrier for pipelined writes: if a fire-and-forget write's
// batch failed since the last barrier, that error is delivered here (the
// forced id's own result stays cached for a retry).
func (s *Store) ResultSet(id QueryID) (*sqldb.ResultSet, error) {
	if r, ok := s.resolved(id); ok {
		return r.RS, r.Err
	}
	// The force span covers the cache-miss path end to end: the flush it
	// triggers plus the wait for every in-flight batch.
	var fc obs.Ctx
	if s.traceCtx.Enabled() {
		fc = s.traceCtx.Child("force", "force", s.conn.Clock().Now(),
			obs.Arg{K: "q", V: int64(id)})
	}
	s.submit("force")
	ferr := s.collect()
	fc.End(s.conn.Clock().Now())
	if r, ok := s.resolved(id); ok {
		if r.Err != nil {
			// Returning this batch's error delivers it; a write error from
			// a DIFFERENT batch stays latched for the next barrier.
			s.dropWriteErr(r.Err)
			return nil, r.Err
		}
		if werr := s.takeWriteErr(); werr != nil {
			return nil, werr
		}
		return r.RS, nil
	}
	if ferr != nil {
		s.dropWriteErr(ferr)
		return nil, ferr
	}
	return nil, fmt.Errorf("%w %d", ErrUnknownQueryID, id)
}

// resolved looks id up among the collected results and recorded errors.
func (s *Store) resolved(id QueryID) (Result, bool) {
	if i := id - s.base; i >= 0 && i < QueryID(len(s.results)) && s.results[i] != nil {
		return Result{RS: s.results[i]}, true
	}
	if err, ok := s.errs[id]; ok {
		return Result{Err: err}, true
	}
	return Result{}, false
}

// recordErr keeps the first execution error observed for id.
func (s *Store) recordErr(id QueryID, err error) {
	if s.errs == nil {
		s.errs = make(map[QueryID]error)
	}
	if _, dup := s.errs[id]; !dup {
		s.errs[id] = err
	}
}

// Flush sends every pending statement to the database in one round trip,
// waits for every in-flight batch, and caches the results. A flush with an
// empty queue and no in-flight batches is a no-op. The returned error is
// the first batch failure observed, joined with every pending
// pipelined-write failure (each delivered exactly once); the same errors
// are also recorded against every id of their failed batches, so later
// forces of those ids see them (deferred-error delivery).
func (s *Store) Flush() error {
	s.submit("flush")
	return s.barrierErr(s.collect())
}

// FlushAsync is the pipelined-flush hint: under a deferred dispatcher it
// submits the pending batch so execution overlaps the caller's subsequent
// compute; under the synchronous dispatcher it is a no-op, preserving the
// paper's flush-at-force behaviour (and never executing statements a
// synchronous run would not have executed).
func (s *Store) FlushAsync() {
	if s.disp.Deferred() {
		s.submit("async")
	}
}

// submit hands the pending batch to the dispatcher. trigger names what
// forced the flush (force, write, cap, flush, async) for the flush span.
func (s *Store) submit(trigger string) {
	if len(s.queue) == 0 {
		return
	}
	batch := s.queue
	s.dedup.Reset()

	for i := range batch {
		// Parse-once threading: attach the interned AST here, at submit
		// time, so the merge analyzer, the driver's cost loop, and the
		// engine all consume one parse per distinct SQL text. Malformed
		// statements keep a nil AST — execution re-derives the (interned)
		// parse error and reports it through the usual deferred path.
		if batch[i].Parsed == nil {
			if parsed, err := plan.ParseCached(batch[i].SQL); err == nil {
				batch[i].Parsed = parsed
			}
		}
	}
	if s.cfg.Record != nil {
		// Hand the recorder its own copy: the queue's array holds the next
		// batch once this one is submitted.
		s.cfg.Record(append([]driver.Stmt(nil), batch...))
	}
	// The flush span covers submit to submit-return: under the synchronous
	// dispatcher that is the whole blocking round trip, under deferred
	// dispatchers it is a zero-width handoff on the session clock, with the
	// execution spans under it stamped at their own virtual times.
	var fctx obs.Ctx
	if s.traceCtx.Enabled() {
		fctx = s.traceCtx.Child("flush", "flush", s.conn.Clock().Now(),
			obs.Arg{K: "trigger", V: trigger},
			obs.Arg{K: "stmts", V: len(batch)})
	}
	// A dispatcher takes the batch's span context from the connection, as it
	// takes the arrival time from the connection's clock: the flush span is
	// the connection's context for the duration of Submit.
	prev := s.conn.TraceCtx()
	s.conn.SetTraceCtx(fctx)
	t := s.disp.Submit(batch)
	s.conn.SetTraceCtx(prev)
	fctx.End(s.conn.Clock().Now())
	s.inflight = append(s.inflight, inflight{t: t, first: s.nextID - QueryID(len(batch)), n: len(batch), ctx: fctx})
	s.stats.Batches++
	if len(batch) > s.stats.MaxBatch {
		s.stats.MaxBatch = len(batch)
	}
	// The dispatcher is done with the batch when Submit returns, so the next
	// batch reuses the array.
	s.queue = batch[:0]
}

// collect waits for every in-flight batch, caching results and recording
// deferred errors per id. Returns the first batch error observed. A failed
// batch carrying a fire-and-forget write additionally latches writeErr, so
// the failure reaches the next barrier even though nobody forces the
// write's own id.
func (s *Store) collect() error {
	var first error
	deferred := s.disp.Deferred()
	for _, f := range s.inflight {
		tracedWait := deferred && f.ctx.Enabled()
		var waitFrom time.Duration
		if tracedWait {
			waitFrom = s.conn.Clock().Now()
		}
		results, bs, err := s.disp.Wait(f.t)
		if tracedWait {
			// Record the wait only when the session actually blocked on the
			// virtual clock; fully-overlapped batches wait for free.
			if now := s.conn.Clock().Now(); now > waitFrom {
				f.ctx.Child("wait", "wait", waitFrom).End(now)
			}
		}
		if err != nil {
			if first == nil {
				first = err
			}
			// Deferred-error delivery: every id of the failed batch
			// reports the original execution error at force time instead
			// of "unknown query id".
			ffHit := false
			for id := f.first; id < f.first+QueryID(f.n); id++ {
				s.recordErr(id, err)
				if _, ff := s.fireAndForget[id]; ff {
					delete(s.fireAndForget, id)
					ffHit = true
				}
			}
			if ffHit {
				// Latch per failed batch: two pipelined writes that failed
				// in separate batches both reach the next barrier.
				s.writeErrs = append(s.writeErrs, err)
			}
			continue
		}
		// A degraded batch (one that fell back to per-statement execution
		// after an injected failure) succeeds as a whole but may carry
		// per-statement errors: each failed id records its OWN error for
		// force-time delivery, while the sibling ids keep their results — a
		// poisoned key no longer fails every query merged with it. A failed
		// fire-and-forget write still latches for the next barrier, exactly
		// once.
		stmtErrs := f.t.StmtErrs()
		var ffErrs []error
		off := int(f.first - s.base)
		s.results = slices.Grow(s.results, off+f.n-len(s.results))[:off+f.n]
		for i := 0; i < f.n; i++ {
			id := f.first + QueryID(i)
			if stmtErrs != nil && stmtErrs[i] != nil {
				s.recordErr(id, stmtErrs[i])
				if _, ff := s.fireAndForget[id]; ff {
					delete(s.fireAndForget, id)
					ffErrs = append(ffErrs, stmtErrs[i])
				}
				continue
			}
			s.results[off+i] = results[i]
			if len(s.fireAndForget) > 0 {
				delete(s.fireAndForget, id)
			}
		}
		if len(ffErrs) > 0 {
			s.writeErrs = append(s.writeErrs, errors.Join(ffErrs...))
		}
		s.stats.Executed += int64(bs.Sent)
	}
	s.inflight = s.inflight[:0]
	return first
}

// Exec registers a statement and immediately demands its result: the
// behaviour of a statement whose value is used right away. For writes the
// batch has already flushed by the time Register returns.
func (s *Store) Exec(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	id, err := s.Register(sql, args...)
	if err != nil {
		return nil, err
	}
	return s.ResultSet(id)
}

// WritesPipelined reports whether mutating statements ride the pipeline as
// fire-and-forget tickets: the store is configured for it AND the
// dispatcher actually defers execution (pipelining through the synchronous
// dispatcher would change nothing but the error surface).
func (s *Store) WritesPipelined() bool {
	return s.cfg.PipelineWrites && s.disp.Deferred()
}

// ExecPipelined registers a mutating statement and lets it ride the
// pipeline without demanding its result. Registration still flushes the
// batch in order — the dispatcher's per-session FIFO preserves
// read-your-writes — but a deferred dispatcher's session does not wait for
// completion: the write's round trip overlaps whatever the session
// computes next. If the write's batch later fails, the error is recorded
// against the write's QueryID and delivered at the next read barrier or at
// Close. Under the synchronous dispatcher this is Exec minus the result.
func (s *Store) ExecPipelined(sql string, args ...sqldb.Value) error {
	id, err := s.Register(sql, args...)
	if err != nil {
		return err
	}
	if !s.disp.Deferred() {
		_, err := s.ResultSet(id)
		return err
	}
	if s.fireAndForget == nil {
		s.fireAndForget = make(map[QueryID]struct{})
	}
	s.fireAndForget[id] = struct{}{}
	return nil
}

// takeWriteErr pops every undelivered pipelined-write error, joined.
func (s *Store) takeWriteErr() error {
	if len(s.writeErrs) == 0 {
		return nil
	}
	err := errors.Join(s.writeErrs...)
	s.writeErrs = nil
	return err
}

// dropWriteErr removes one latched write error that is being delivered
// through another return path, so it is not reported twice.
func (s *Store) dropWriteErr(err error) {
	for i, w := range s.writeErrs {
		if w == err {
			s.writeErrs = append(s.writeErrs[:i], s.writeErrs[i+1:]...)
			return
		}
	}
}

// barrierErr combines a barrier's own batch error with every pending
// pipelined-write error: the barrier delivers all of it at once, counting
// the batch error only once even when it is also latched.
func (s *Store) barrierErr(err error) error {
	s.dropWriteErr(err)
	werr := s.takeWriteErr()
	switch {
	case err == nil:
		return werr
	case werr == nil:
		return err
	default:
		return errors.Join(err, werr)
	}
}

// Result pairs a result set with the deferred error from its execution, so
// lazy consumers can observe failures at force time.
type Result struct {
	RS  *sqldb.ResultSet
	Err error
}

// Lazy registers the query now (eager registration — the defining property
// of extended lazy evaluation) and returns a thunk whose force retrieves
// the result set, flushing the batch if needed. This is the reproduction of
// the paper's compiled query-call thunk (Sec. 3.3).
func Lazy(s *Store, sql string, args ...sqldb.Value) *thunk.Thunk[Result] {
	s.stats.ThunkAllocs++
	id, err := s.Register(sql, args...)
	if err != nil {
		return thunk.Lit(Result{Err: err})
	}
	return thunk.New(func() Result {
		rs, err := s.ResultSet(id)
		return Result{RS: rs, Err: err}
	})
}
