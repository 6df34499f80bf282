package engine

import (
	"fmt"

	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/storage"
)

// SnapSession executes read-only statements against one pinned MVCC
// snapshot: every SELECT it runs sees exactly the store state published at
// the snapshot's epoch, concurrent with other snapshot sessions and with
// the serialized writer. The driver opens one per read-only batch, runs
// the batch's statements on a worker goroutine, and closes it — the
// snapshot lifecycle IS the batch lifecycle. A DB worker keeps one session
// for every batch it runs, re-pinning it (Repin) after each Close, so the
// snapshot and the plan scratch its SELECTs work in are allocated once per
// worker rather than once per batch.
//
// A SnapSession is not safe for concurrent use by multiple goroutines;
// different SnapSessions are.
type SnapSession struct {
	db      *DB
	snap    *storage.Snap
	scratch plan.Scratch
}

// BeginSnapshot pins the current committed epoch and returns a session
// reading from it. Callers must Close it — an unreleased snapshot holds
// back version garbage collection forever.
func (db *DB) BeginSnapshot() *SnapSession {
	return &SnapSession{db: db, snap: db.store.Snapshot()}
}

// Repin pins a closed session again at the current committed epoch,
// keeping its snapshot and scratch. Callers must Close it again.
func (ss *SnapSession) Repin() { ss.db.store.Repin(ss.snap) }

// ExecSelect executes one SELECT against the snapshot, returning the
// result set, the caller's to keep, and (when withPath is set) the
// access-path description the tracing layer stamps on statement spans.
// Statements that are not SELECTs error: writes go through the serialized
// Session path.
func (ss *SnapSession) ExecSelect(sql string, st sqlparse.Statement, args []sqldb.Value, withPath bool) (*sqldb.ResultSet, string, error) {
	return ss.ExecSelectIn(nil, sql, st, args, withPath)
}

// ExecSelectIn is ExecSelect taking the result from a (nil: allocates it).
//
// The structural read lock is held per statement, so a writer
// restructuring tables blocks readers only for those instants; the
// snapshot keeps reads consistent across the whole batch regardless.
func (ss *SnapSession) ExecSelectIn(a *sqldb.Arena, sql string, st sqlparse.Statement, args []sqldb.Value, withPath bool) (*sqldb.ResultSet, string, error) {
	args = normalizeArgs(args)
	ss.db.store.ReadLock()
	defer ss.db.store.ReadUnlock()
	p := ss.db.plans.Prepare(sql, st)
	if p.Err != nil {
		return nil, "", p.Err
	}
	if p.Select == nil {
		return nil, "", fmt.Errorf("engine: snapshot session executes only SELECT, got %T", st)
	}
	path := ""
	if withPath {
		path = p.Select.AccessDesc()
	}
	rs, err := p.Select.ExecSnap(args, ss.snap, &ss.scratch, a)
	if err != nil {
		return nil, "", err
	}
	return rs, path, nil
}

// Close releases the snapshot (idempotent). Dead versions the snapshot
// was pinning become sweepable immediately.
func (ss *SnapSession) Close() { ss.snap.Release() }
