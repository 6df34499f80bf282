package plan

import (
	"sync"
	"sync/atomic"

	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/storage"
)

// Prepared is one statement's compiled form. Exactly one of the plan
// fields is set for DML statements; Err carries an unconditional
// compilation failure (unknown table, bad SET column, ...) that execution
// reports every time, exactly as the interpreted executor did.
type Prepared struct {
	Stmt   sqlparse.Statement
	Select *SelectPlan
	Insert *InsertPlan
	Update *UpdatePlan
	Delete *DeletePlan
	Err    error
}

// compile builds the plan for any statement kind. DDL statements carry no
// plan: the engine executes them directly.
func compile(st sqlparse.Statement, store *storage.Store) *Prepared {
	p := &Prepared{Stmt: st}
	switch x := st.(type) {
	case *sqlparse.SelectStmt:
		p.Select, p.Err = CompileSelect(x, store)
	case *sqlparse.InsertStmt:
		p.Insert, p.Err = CompileInsert(x, store)
	case *sqlparse.UpdateStmt:
		p.Update, p.Err = CompileUpdate(x, store)
	case *sqlparse.DeleteStmt:
		p.Delete, p.Err = CompileDelete(x, store)
	}
	return p
}

// CacheStats counts compiled-plan cache activity.
type CacheStats struct {
	Hits          int64 // Prepare calls answered by a current cached plan
	Misses        int64 // Prepare calls that compiled (first sight, cache off, or no key)
	Invalidations int64 // cached plans recompiled because the schema epoch moved
}

// cacheEntry pins a compiled plan to the schema epoch it was built under.
type cacheEntry struct {
	epoch uint64
	p     *Prepared
}

// Cache is a per-database compiled-plan cache keyed by (SQL text, schema
// epoch). DDL bumps the store's epoch; stale entries recompile lazily on
// next use. The map is guarded by an RWMutex and the counters are atomics,
// so the hot hit path — every statement of every parallel snapshot worker —
// takes only a read lock. Callers additionally hold either the store's
// writer mutex or its structural read lock across Prepare-and-execute,
// which is what makes a returned plan safe to run (plans alias table
// metadata, which only changes under the structural write lock).
//
// Eviction is deliberately absent: the workloads are small template sets,
// and the harness favours predictable steady-state behaviour over bounded
// memory (see DESIGN.md "Prepared plans").
type Cache struct {
	store *storage.Store

	mu      sync.RWMutex
	entries map[string]cacheEntry

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
}

// NewCache creates an empty plan cache over store.
func NewCache(store *storage.Store) *Cache {
	return &Cache{store: store, entries: make(map[string]cacheEntry)}
}

// Prepare returns the compiled plan for (sql, st), compiling on first
// sight or when the schema epoch moved since the cached compile. An empty
// sql key (a caller holding only an AST) and a disabled cache both compile
// afresh. The caller must hold the store's writer mutex or its structural
// read lock.
func (c *Cache) Prepare(sql string, st sqlparse.Statement) *Prepared {
	if sql == "" || !CachingEnabled() {
		c.misses.Add(1)
		return compile(st, c.store)
	}
	epoch := c.store.Epoch()
	c.mu.RLock()
	e, ok := c.entries[sql]
	c.mu.RUnlock()
	if ok && e.epoch == epoch {
		c.hits.Add(1)
		return e.p
	}
	if ok {
		c.invalidations.Add(1)
	}
	c.misses.Add(1)

	p := compile(st, c.store)

	c.mu.Lock()
	c.entries[sql] = cacheEntry{epoch: epoch, p: p}
	c.mu.Unlock()
	return p
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
	}
}

// Len reports how many distinct SQL texts hold cached plans.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}
