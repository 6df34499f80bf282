// Package engine implements the query processor of the reproduction's
// database: statement execution over the storage layer, and DDL. Each
// write statement runs in one storage.Store.Write, so its writes publish
// to snapshots in one step; the dialect has no multi-statement
// transactions. Publication is not rollback: a multi-row INSERT, UPDATE or
// DELETE that fails part-way returns its error and still publishes the
// rows it changed before the failure. Since the prepared-plan layer
// (internal/sqldb/plan) was introduced, the engine executes compiled
// plans: parsing is interned per distinct SQL text, and column resolution,
// select-list expansion, and access-path choice happen once per (SQL text,
// schema epoch) instead of on every call. It is the stand-in for the MySQL
// server in the paper's experimental setup.
package engine

import (
	"fmt"

	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/storage"
)

// DB is the database instance: a storage store, its compiled-plan cache,
// and schema DDL entry points.
type DB struct {
	store *storage.Store
	plans *plan.Cache
}

// New creates an empty database.
func New() *DB {
	store := storage.NewStore()
	return &DB{store: store, plans: plan.NewCache(store)}
}

// Store exposes the underlying storage to readers outside the engine: the
// driver takes its structural read lock around snapshot batches and reads
// its shard count; reporting and probes read its tables, rows and plans.
// Rows change only through SQL (Session), whose writes run in Store.Write.
func (db *DB) Store() *storage.Store { return db.store }

// PlanCache exposes the compiled-plan cache (hit-rate reporting and the
// plan-correctness tests).
func (db *DB) PlanCache() *plan.Cache { return db.plans }

// Session executes statements under the store's writer mutex. It holds
// only the scratch its SELECTs work in: the engine keeps no per-client
// state. ExecPrepared allocates and uses that scratch only while it holds
// the mutex, and no result it returns references the scratch, so one
// session is safe to share between goroutines: the driver's server runs
// every connection's serial batches on one.
type Session struct {
	db *DB
	// scratch is allocated by the session's first SELECT: a server whose
	// reads all run on DB workers' snapshots never needs one.
	scratch *plan.Scratch
}

// NewSession opens a session.
func (db *DB) NewSession() *Session { return &Session{db: db} }

// Exec parses (through the process-wide parse interner) and executes one
// statement with optional positional args, which may be any Go spelling
// sqldb.Normalize knows: it is the engine's own door (fixtures, the SQL
// shell), and it canonicalizes them for ExecPrepared.
func (s *Session) Exec(sql string, args ...sqldb.Value) (*sqldb.ResultSet, error) {
	st, err := plan.ParseCached(sql)
	if err != nil {
		return nil, err
	}
	rs, _, err := s.ExecPrepared(nil, sql, st, sqldb.NormalizeArgs(args), false)
	return rs, err
}

// ExecPrepared executes a parsed statement whose text is sql, with
// canonical args (sqldb.NormalizeArgs; driver.Prepare delivers them so),
// going through the compiled-plan cache, takes its result — a SELECT's, a
// write's or DDL's — from a (nil allocates it, so Exec's results are the
// caller's to keep), and
// (when withPath is set) names the access path the tracing layer stamps
// on statement spans: "index-eq(col)"
// / "index-in(col)" / "index-range(a,b)" / "index-order(a,b)" / "scan" for
// SELECTs — read off the same compiled plan that executes, so tracing never
// touches the plan cache a second time — "write" for mutations, "control"
// for DDL. It acquires the store lock for the duration of the statement — the engine
// serializes statements, which is sufficient for the reproduction's
// single-store workloads.
func (s *Session) ExecPrepared(a *sqldb.Arena, sql string, st sqlparse.Statement, args []sqldb.Value, withPath bool) (*sqldb.ResultSet, string, error) {
	s.db.store.Lock()
	defer s.db.store.Unlock()
	return s.execLocked(a, sql, st, args, withPath)
}

func (s *Session) execLocked(a *sqldb.Arena, sql string, st sqlparse.Statement, args []sqldb.Value, withPath bool) (rs *sqldb.ResultSet, path string, err error) {
	path = "control"
	switch x := st.(type) {
	case *sqlparse.SelectStmt, *sqlparse.InsertStmt, *sqlparse.UpdateStmt, *sqlparse.DeleteStmt:
		p := s.db.plans.Prepare(sql, st)
		if p.Err != nil {
			return nil, "", p.Err
		}
		if p.Select == nil {
			rs, err = s.execWrite(a, p, args)
			return rs, "write", err
		}
		path = ""
		if withPath {
			path = p.Select.AccessDesc()
		}
		if s.scratch == nil {
			s.scratch = new(plan.Scratch)
		}
		rs, err = p.Select.Exec(args, s.scratch, a)
	case *sqlparse.CreateTableStmt:
		rs, err = s.execCreateTable(a, x)
	case *sqlparse.CreateIndexStmt:
		rs, err = s.execCreateIndex(a, x)
	default:
		return nil, "", fmt.Errorf("engine: unsupported statement %T", st)
	}
	return rs, path, err
}

func (s *Session) execCreateTable(a *sqldb.Arena, st *sqlparse.CreateTableStmt) (*sqldb.ResultSet, error) {
	cols := make([]storage.Column, len(st.Cols))
	for i, c := range st.Cols {
		cols[i] = storage.Column{Name: c.Name, Type: c.Type, PrimaryKey: c.PrimaryKey}
	}
	// CreateTable bumps the store's schema epoch, invalidating cached plans.
	if _, err := s.db.store.CreateTable(st.Name, cols); err != nil {
		return nil, err
	}
	return a.Result(nil, nil, 0), nil
}

func (s *Session) execCreateIndex(a *sqldb.Arena, st *sqlparse.CreateIndexStmt) (*sqldb.ResultSet, error) {
	t, ok := s.db.store.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", st.Table)
	}
	// AddIndex notifies the store, bumping the schema epoch so cached plans
	// recompile and pick up the new access path.
	var err error
	if len(st.Cols) == 2 {
		err = t.AddOrderedIndex(st.Cols[0], st.Cols[1])
	} else {
		err = t.AddIndex(st.Cols[0], st.Unique)
	}
	if err != nil {
		return nil, err
	}
	return a.Result(nil, nil, 0), nil
}

// execWrite runs one INSERT, UPDATE or DELETE as one Store.Write: every
// row the statement touches carries one version stamp and becomes visible
// to snapshots when Write returns — a concurrent snapshot reader never sees
// half a multi-row statement (though it sees the published half of one
// that failed, see the package doc). The result comes from a.
func (s *Session) execWrite(a *sqldb.Arena, p *plan.Prepared, args []sqldb.Value) (rs *sqldb.ResultSet, err error) {
	err = s.db.store.Write(func(w *storage.Writer) (err error) {
		switch {
		case p.Insert != nil:
			rs, err = s.execInsert(a, w, p.Insert, args)
		case p.Update != nil:
			rs, err = s.execUpdate(a, w, p.Update, args)
		default:
			rs, err = s.execDelete(a, w, p.Delete, args)
		}
		return err
	})
	return rs, err
}

func (s *Session) execInsert(a *sqldb.Arena, w *storage.Writer, p *plan.InsertPlan, args []sqldb.Value) (*sqldb.ResultSet, error) {
	t := p.T
	rs := a.Result(nil, nil, 0)
	for _, fns := range p.RowFns {
		if len(fns) != len(p.Ordinals) {
			return nil, fmt.Errorf("engine: INSERT row has %d values, want %d", len(fns), len(p.Ordinals))
		}
		row := make(storage.Row, len(t.Columns))
		for j, fn := range fns {
			v, err := fn(nil, args)
			if err != nil {
				return nil, err
			}
			row[p.Ordinals[j]] = v
		}
		// Storage adopts row as the stored image: from here on it is only read.
		if _, err := w.Insert(t, row); err != nil {
			return nil, err
		}
		if pk := t.PKOrdinal(); pk >= 0 {
			if v, ok := row[pk].(int64); ok {
				rs.LastInsertID = v
			}
		}
		rs.RowsAffected++
	}
	return rs, nil
}

func (s *Session) execUpdate(a *sqldb.Arena, w *storage.Writer, p *plan.UpdatePlan, args []sqldb.Value) (*sqldb.ResultSet, error) {
	ids, scanned, err := p.Access.Match(args)
	if err != nil {
		return nil, err
	}
	rs := a.Result(nil, nil, scanned)
	for _, id := range ids {
		row, ok := p.T.RowAt(id, nil) // the stored image: read, never written
		if !ok {
			continue
		}
		newRow := make(storage.Row, len(row))
		copy(newRow, row)
		for i, fn := range p.SetFns {
			v, err := fn(row, args)
			if err != nil {
				return nil, err
			}
			newRow[p.SetOrds[i]] = v
		}
		if _, err := w.Update(p.T, id, newRow); err != nil { // storage adopts newRow
			return nil, err
		}
		rs.RowsAffected++
	}
	return rs, nil
}

func (s *Session) execDelete(a *sqldb.Arena, w *storage.Writer, p *plan.DeletePlan, args []sqldb.Value) (*sqldb.ResultSet, error) {
	ids, scanned, err := p.Access.Match(args)
	if err != nil {
		return nil, err
	}
	rs := a.Result(nil, nil, scanned)
	for _, id := range ids {
		if _, ok := w.Delete(p.T, id); !ok {
			continue
		}
		rs.RowsAffected++
	}
	return rs, nil
}
