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
// This root package is the public facade. The heavy lifting lives in the
// internal packages (and is exercised by cmd/, examples/, and the
// repository-root benchmarks):
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

	"repro/internal/core"
	"repro/internal/driver"
	"repro/internal/querystore"
	"repro/internal/sqldb"
	"repro/internal/thunk"
)

// Result is a deferred query outcome: the result set and any execution
// error, produced when the thunk is forced.
type Result = querystore.Result

// Lazy is a deferred value of type T.
type Lazy[T any] = thunk.Thunk[T]

// Runtime is a per-request Sloth execution context: it accumulates query
// registrations and flushes them in single round trips on demand.
type Runtime = core.Runtime

// Testbed is an in-process deployment (engine + server + simulated link +
// runtime) for trying the library without external infrastructure.
type Testbed = core.Testbed

// StoreConfig tunes the query store (dedup, batch caps).
type StoreConfig = querystore.Config

// NewTestbed builds an in-process deployment with the given simulated
// round-trip latency.
func NewTestbed(rtt time.Duration) *Testbed { return core.NewTestbed(rtt) }

// NewRuntime wraps an established driver connection in a Sloth runtime.
func NewRuntime(conn *driver.Conn, cfg StoreConfig) *Runtime {
	return core.NewRuntime(conn, cfg)
}

// Defer wraps a computation in a memoized lazy value.
func Defer[T any](fn func() T) *Lazy[T] { return thunk.New(fn) }

// Value wraps an already-computed value (the paper's LiteralThunk).
func Value[T any](v T) *Lazy[T] { return thunk.Lit(v) }

// A Row is one row of a forced result, indexed by column position.
type Row = []sqldb.Value
