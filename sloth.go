// Package sloth is a from-scratch Go reproduction of "Sloth: Being Lazy is
// a Virtue (When Issuing Database Queries)" (Cheung, Madden, Solar-Lezama,
// SIGMOD 2014).
//
// Sloth reduces web-application latency by extending lazy evaluation:
// database queries register with a per-request query store at the moment
// the code would have issued them, but execute only when a result is first
// demanded — at which point every pending query ships to the database in a
// single round trip.
//
// This root package is the public facade: a Runtime wires extended lazy
// evaluation (internal/thunk) to a query store (internal/querystore) over a
// batch-capable driver connection (internal/driver), and a Testbed deploys
// one in process. The heavy lifting lives in the internal packages (and is
// exercised by cmd/, examples/, and the repository-root benchmarks):
//
//   - internal/thunk       — the memoizing thunk runtime
//   - internal/querystore  — the batching query store (the core mechanism)
//   - internal/sqldb/...   — SQL parser, storage, and execution engine
//   - internal/driver      — batch-capable client/server driver
//   - internal/netsim      — virtual-clock network simulation
//   - internal/orm         — Hibernate-style ORM with Sloth extensions
//   - internal/webapp      — MVC framework with a thunk-aware view writer
//   - internal/lazyc       — the paper's kernel language: one walker per
//     semantics (standard, extended lazy) and the SC/TC/BD optimizations,
//     whose strict code runs the standard walker
//   - internal/apps/...    — OpenMRS-like, itracker-like, TPC-C, TPC-W
//   - internal/bench       — the harness regenerating every figure/table
package sloth

import (
	"time"

	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/orm"
	"repro/internal/querystore"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
	"repro/internal/thunk"
)

// Result is a deferred query outcome: the result set and any execution
// error, produced when the thunk is forced.
type Result = querystore.Result

// Lazy is a deferred value of type T.
type Lazy[T any] = thunk.Thunk[T]

// StoreConfig tunes the query store (dedup, batch caps).
type StoreConfig = querystore.Config

// Defer wraps a computation in a memoized lazy value.
func Defer[T any](fn func() T) *Lazy[T] { return thunk.New(fn) }

// Value wraps an already-computed value (the paper's LiteralThunk).
func Value[T any](v T) *Lazy[T] { return thunk.Lit(v) }

// A Row is one row of a forced result, indexed by column position.
type Row = []sqldb.Value

// Runtime is a per-request Sloth execution context: what a Sloth-compiled
// application holds per request. It registers queries eagerly, defers their
// execution, and flushes accumulated batches in single round trips when
// results are demanded.
type Runtime struct {
	store *querystore.Store
}

// NewRuntime wraps an established driver connection in a Sloth runtime.
func NewRuntime(conn *driver.Conn, cfg StoreConfig) *Runtime {
	return &Runtime{store: querystore.New(conn, cfg)}
}

// Store exposes the underlying query store.
func (r *Runtime) Store() *querystore.Store { return r.store }

// Conn exposes the underlying connection.
func (r *Runtime) Conn() *driver.Conn { return r.store.Conn() }

// LazyQuery registers sql with the query store now and returns a thunk for
// its result — the fundamental Sloth operation (paper Sec. 3.3).
func (r *Runtime) LazyQuery(sql string, args ...sqldb.Value) *thunk.Thunk[querystore.Result] {
	return querystore.Lazy(r.store, sql, args...)
}

// Exec runs a statement demanding its result immediately. Writes flush any
// pending batch first, preserving statement order.
func (r *Runtime) Exec(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	return r.store.Exec(sql, args...)
}

// Flush forces the pending batch out in one round trip.
func (r *Runtime) Flush() error { return r.store.Flush() }

// Session opens an ORM session over this runtime in Sloth mode.
func (r *Runtime) Session() *orm.Session {
	return orm.NewSession(r.store, orm.ModeSloth)
}

// OriginalSession opens an ORM session with conventional eager execution,
// for side-by-side comparisons.
func (r *Runtime) OriginalSession() *orm.Session {
	return orm.NewSession(r.store, orm.ModeOriginal)
}

// Testbed is an all-in-one in-process deployment: database engine, server,
// simulated link, and a connected runtime — the quickest way to try the
// library without external infrastructure (see examples/quickstart).
type Testbed struct {
	Clock   *netsim.VirtualClock
	DB      *engine.DB
	Server  *driver.Server
	Link    *netsim.Link
	Runtime *Runtime
}

// NewTestbed builds an in-process deployment with the given simulated
// round-trip latency.
func NewTestbed(rtt time.Duration) *Testbed {
	clock := netsim.NewVirtualClock()
	db := engine.New()
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	link := netsim.NewLink(clock, rtt)
	conn := srv.Connect(link)
	return &Testbed{
		Clock:   clock,
		DB:      db,
		Server:  srv,
		Link:    link,
		Runtime: NewRuntime(conn, querystore.Config{}),
	}
}

// MustExec seeds the testbed database directly (no network accounting),
// panicking on error; intended for fixtures.
func (tb *Testbed) MustExec(sql string, args ...sqldb.Value) {
	if _, err := tb.DB.NewSession().Exec(sql, args...); err != nil {
		panic(err)
	}
}

// RoundTrips reports how many round trips the testbed link has carried.
func (tb *Testbed) RoundTrips() int64 { return tb.Link.Stats().RoundTrips }
