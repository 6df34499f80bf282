package orm

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/driver"
	"repro/internal/querystore"
	"repro/internal/sqldb"
)

// Mode selects the execution strategy for a session.
type Mode int

const (
	// ModeOriginal is conventional ORM behaviour: every data access
	// executes immediately in its own round trip, and eager-fetch
	// associations cascade at load time.
	ModeOriginal Mode = iota
	// ModeSloth registers queries with the query store and returns
	// unforced thunks; batches flush when a result is demanded or a write
	// is issued.
	ModeSloth
)

// ErrNotFound is the sentinel behind Find's "orm: <table> id <n> not found"
// failure; match it with errors.Is.
var ErrNotFound = errors.New("not found")

// SessionStats counts ORM-level activity.
type SessionStats struct {
	Loads        int64 // entity load calls
	IdentityHits int64 // loads served from the identity map
	Deserialized int64 // entities materialized from rows
	EagerLoads   int64 // cascade queries issued (ModeOriginal only)
	// ThunkAllocs counts lazy values allocated on behalf of this session
	// (including Map-derived ones). Unlike the process-global thunk
	// counter, it is per-session, so a page load's thunk count — and the
	// app-server time charged for it — is deterministic under concurrency.
	ThunkAllocs int64
}

// Session is one request's ORM context: a connection (via the query store),
// an execution mode, and the identity map. Not safe for concurrent use,
// like a Hibernate session.
type Session struct {
	store    *querystore.Store
	mode     Mode
	identity map[identityKey]any // borrowed on first put, emptied by Clear
	stats    SessionStats
}

// identityKey names one entity: its Meta's table token (the address of the
// Meta's table field — one per registered mapping) and its primary key.
type identityKey struct {
	table *string
	pk    int64
}

// NewSession opens a session in the given mode over a query store.
func NewSession(store *querystore.Store, mode Mode) *Session {
	return &Session{store: store, mode: mode}
}

// Sloth reports whether the session defers queries.
func (s *Session) Sloth() bool { return s.mode == ModeSloth }

// Store exposes the session's query store.
func (s *Session) Store() *querystore.Store { return s.store }

// Conn exposes the underlying driver connection.
func (s *Session) Conn() *driver.Conn { return s.store.Conn() }

// Stats snapshots session counters.
func (s *Session) Stats() SessionStats { return s.stats }

// Clear ends the current request on a long-lived session: it drops the
// identity map (like EntityManager.clear) and releases the query store's
// resolved results (querystore.Store.EndRequest), so lazies obtained before
// Clear must not be forced after it.
func (s *Session) Clear() {
	clear(s.identity)
	s.store.EndRequest()
}

func (s *Session) identityGet(table *string, pk int64) (any, bool) {
	e, ok := s.identity[identityKey{table, pk}]
	return e, ok
}

func (s *Session) identityPut(table *string, pk int64, e any) {
	if s.identity == nil {
		s.identity = identityPool.Get().(map[identityKey]any)
		s.store.OnClose(s.releaseIdentity)
	}
	s.identity[identityKey{table, pk}] = e
}

// identityPool holds the identity maps of sessions whose store has closed,
// emptied, so a per-request session fills a map grown by earlier requests
// rather than growing its own from nothing.
var identityPool = sync.Pool{New: func() any { return make(map[identityKey]any) }}

// releaseIdentity runs when the session's store closes: the map goes back to
// the pool empty, and a later put borrows again.
func (s *Session) releaseIdentity() {
	clear(s.identity)
	identityPool.Put(s.identity)
	s.identity = nil
}

// write executes a mutating statement. Under ModeSloth the registration
// flushes the pending batch first, preserving order (paper Sec. 3.3).
// When the store pipelines writes, the statement rides the dispatch
// pipeline as a fire-and-forget ticket instead of forcing its own result:
// read-your-writes holds through the identity map (loaded entities stay
// current) and the dispatcher's per-session FIFO (later reads execute
// after the write), and a failure surfaces at the session's next read
// barrier or close. The returned result set is nil in that case — the ORM
// mutators only inspect the error.
//
// The mutators update the identity map optimistically, before the
// pipelined write has executed. A session that observes a deferred write
// error is therefore inconsistent — optimistically cached entities may
// never have been persisted — and must be discarded, exactly like a
// Hibernate session after a flush failure; per-request sessions get this
// for free, since the request that sees the error ends.
func (s *Session) write(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	if s.mode == ModeOriginal {
		return s.store.Conn().Query(sql, args...)
	}
	if s.store.WritesPipelined() {
		return nil, s.store.ExecPipelined(sql, args...)
	}
	return s.store.Exec(sql, args...)
}

// Find loads the entity with the given primary key. Under ModeSloth the
// returned Lazy is unforced: the SELECT is registered but not executed.
// Under ModeOriginal the query runs now and eager cascades fire.
func (m *Meta[T]) Find(s *Session, id int64) Lazy[*T] {
	s.stats.Loads++
	if e, ok := s.identityGet(&m.table, id); ok {
		s.stats.IdentityHits++
		return lazyDone(s, res[*T]{val: e.(*T)})
	}
	if s.mode == ModeOriginal {
		rs, err := s.store.Conn().Query(m.findSQL, id)
		return lazyDone(s, m.one(s, rs, err, id))
	}
	q, err := s.store.Register(m.findSQL, id)
	if err != nil {
		return lazyDone(s, res[*T]{err: err})
	}
	return lazyOf(s, func() res[*T] {
		rs, err := s.store.ResultSet(q)
		return m.one(s, rs, err, id)
	})
}

// one is the value of a Find: the single entity, or ErrNotFound.
func (m *Meta[T]) one(s *Session, rs *sqldb.ResultSet, err error, id int64) res[*T] {
	if err != nil {
		return res[*T]{err: err}
	}
	es, err := m.deserialize(s, rs)
	if err != nil {
		return res[*T]{err: err}
	}
	if len(es) == 0 {
		return res[*T]{err: fmt.Errorf("orm: %s id %d %w", m.table, id, ErrNotFound)}
	}
	m.runEagerCascades(s, es[:1])
	return res[*T]{val: es[0]}
}

// all is the value of a Where: every entity the result holds.
func (m *Meta[T]) all(s *Session, rs *sqldb.ResultSet, err error) res[[]*T] {
	if err != nil {
		return res[[]*T]{err: err}
	}
	es, err := m.deserialize(s, rs)
	if err == nil {
		m.runEagerCascades(s, es)
	}
	return res[[]*T]{val: es, err: err}
}

// FindNow loads an entity and forces it immediately — what application code
// does when it needs the value to build the next query (the p._force() in
// the paper's Fig. 2).
func (m *Meta[T]) FindNow(s *Session, id int64) (*T, error) {
	return m.Find(s, id).Get()
}

// Where loads all entities matching the condition (SQL after WHERE, with
// `?` params).
func (m *Meta[T]) Where(s *Session, cond string, args ...sqldb.Value) Lazy[[]*T] {
	s.stats.Loads++
	sql := m.sqlFor(cond).sel
	if s.mode == ModeOriginal {
		rs, err := s.store.Conn().Query(sql, args...)
		return lazyDone(s, m.all(s, rs, err))
	}
	q, err := s.store.Register(sql, args...)
	if err != nil {
		return lazyDone(s, res[[]*T]{err: err})
	}
	return lazyOf(s, func() res[[]*T] {
		rs, err := s.store.ResultSet(q)
		return m.all(s, rs, err)
	})
}

// All loads every entity of the type.
func (m *Meta[T]) All(s *Session) Lazy[[]*T] { return m.Where(s, "") }

// CountWhere returns the number of rows matching cond.
func (m *Meta[T]) CountWhere(s *Session, cond string, args ...sqldb.Value) Lazy[int64] {
	sql := m.sqlFor(cond).count
	if s.mode == ModeOriginal {
		return lazyDone(s, count(s.store.Conn().Query(sql, args...)))
	}
	q, err := s.store.Register(sql, args...)
	if err != nil {
		return lazyDone(s, res[int64]{err: err})
	}
	return lazyOf(s, func() res[int64] { return count(s.store.ResultSet(q)) })
}

// count reads the COUNT(*) AS n column of a CountWhere result.
func count(rs *sqldb.ResultSet, err error) res[int64] {
	if err != nil {
		return res[int64]{err: err}
	}
	n, err := rs.Int(0, "n")
	return res[int64]{val: n, err: err}
}

// Insert stores a new entity. Writes are never deferred.
func (m *Meta[T]) Insert(s *Session, e *T) error {
	if _, err := s.write(m.insertSQL, m.values(e)...); err != nil {
		return err
	}
	s.identityPut(&m.table, m.pkOf(e), e)
	return nil
}
