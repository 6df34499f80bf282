// Package plan is the prepared-plan layer of the reproduction's database:
// parse-once SQL interning plus a compiled-plan cache between the query text
// and the engine's executor.
//
// Motivation (ISSUE 5): the harness workloads are a small set of
// `?`-parameterized templates repeated across 150 golden pages, yet the seed
// implementation re-parsed every statement's text up to three times per
// execution (engine, driver cost loop, merge analyzer) and re-resolved
// column ordinals, select lists, and index choices on every call. This
// package makes SQL text a compile-once artifact:
//
//   - ParseCached interns parsing per distinct SQL text, process-wide.
//     driver.Prepare, the one constructor of a statement, parses through
//     it, and every downstream consumer (the query store's read/write
//     classification, merge analyze, driver cost loop, engine) reads the
//     statement's AST, so each distinct text is parsed exactly once per run
//     (asserted by tests against sqlparse.ParseCalls). Compiled plans take
//     canonical arguments (sqldb.NormalizeArgs), which Prepare delivers.
//   - Cache holds compiled plans per database store, keyed by (SQL text,
//     schema epoch): resolved tables and column ordinals, the chosen access
//     path (index-eq / index-IN / scan), WHERE predicates and projections
//     compiled to closures over row slices, and the aggregate/order/distinct
//     machinery. DDL bumps the store's epoch, invalidating plans lazily.
//
// SetCaching(false) disables both layers, and the merge optimizer's
// per-template shape cache that hangs off the interned ASTs (every call
// parses, compiles and analyzes afresh; nothing is stored) — the reference
// switch of the cached/uncached equivalence tests and of
// BenchmarkExecSelect's cache-off leg.
package plan

import (
	"sync"
	"sync/atomic"

	"repro/internal/sqldb/sqlparse"
)

// parsed is one interned parse outcome; errors intern too, so malformed
// statements also parse only once.
type parsed struct {
	st  sqlparse.Statement
	err error
}

var (
	parseMu    sync.RWMutex
	parseTable = make(map[string]parsed)

	parseHits   atomic.Int64
	parseMisses atomic.Int64

	cachingOff atomic.Bool
)

// SetCaching enables or disables the prepared-plan layer's caches (the
// parse interner, every compiled-plan cache, and internal/merge's shape
// cache, which consults CachingEnabled), returning the previous setting.
// Disabled, ParseCached parses afresh on every call, Cache compiles afresh
// on every Prepare and the merge optimizer analyzes afresh on every
// statement — the reference the cached/uncached equivalence tests compare
// against. The default is enabled.
func SetCaching(on bool) bool {
	return !cachingOff.Swap(!on)
}

// CachingEnabled reports whether the prepared-plan caches are active.
func CachingEnabled() bool { return !cachingOff.Load() }

// ParseStats counts parse-interner activity.
type ParseStats struct {
	Hits   int64 // calls answered from the interner
	Misses int64 // calls that invoked the parser
}

// ParseCacheStats snapshots the interner counters (cumulative per process;
// callers compare deltas).
func ParseCacheStats() ParseStats {
	return ParseStats{Hits: parseHits.Load(), Misses: parseMisses.Load()}
}

// ParseCached parses sql, answering repeats of the same text from a
// process-wide interner. Interned statements are shared — callers must
// treat the returned AST as immutable (every consumer in this repository
// does: the merge optimizer renders new statements instead of rewriting
// old ones, and the compiler only reads).
func ParseCached(sql string) (sqlparse.Statement, error) {
	if !CachingEnabled() {
		parseMisses.Add(1)
		return sqlparse.Parse(sql)
	}
	parseMu.RLock()
	p, ok := parseTable[sql]
	parseMu.RUnlock()
	if ok {
		parseHits.Add(1)
		return p.st, p.err
	}
	parseMisses.Add(1)
	st, err := sqlparse.Parse(sql)
	parseMu.Lock()
	// A concurrent miss may have stored first; keep the existing entry so
	// every caller sees one canonical AST per text.
	if prev, dup := parseTable[sql]; dup {
		st, err = prev.st, prev.err
	} else {
		parseTable[sql] = parsed{st: st, err: err}
	}
	parseMu.Unlock()
	return st, err
}
