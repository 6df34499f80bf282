package storage

import (
	"sync"
	"sync/atomic"

	"repro/internal/sqldb"
)

// This file holds the MVCC machinery beneath the table heap: epoch-stamped
// row versions, snapshot acquire/release, and the deferred garbage sweep
// that reclaims dead versions once no snapshot can see them.
//
// The design in one paragraph: every mutation stamps the row images it
// creates (and supersedes) with `committed+1`; the statement that made them
// publishes by incrementing `committed` once, when its Store.Write returns,
// so a whole multi-row statement becomes visible in one step. A snapshot
// pins the committed epoch at acquire time and sees exactly the versions
// whose [from, to) interval covers it — never blocking on, or observing,
// writers that publish later. Superseded versions are not unlinked inline
// (a reader may still need them); the writer defers a cleanup record, and
// the sweep prunes chains and stale index postings as soon as the oldest
// live snapshot has moved past them — immediately, in the common
// no-snapshot case, which keeps single-session replays on pristine
// single-version structures and their fast paths.

// liveEpoch is the `to` stamp of a live (not yet superseded) version.
const liveEpoch = ^uint64(0)

// version is one immutable row image in a chain ordered newest-first.
// The row slice is never mutated after the version is linked; only the
// `to` stamp moves (exactly once, live -> superseded), under the
// structural write lock.
type version struct {
	row  Row
	from uint64 // first epoch at which the image is visible
	to   uint64 // first epoch at which it no longer is; liveEpoch while live
	prev *version
}

// visibleRow walks a chain for the image visible at epoch e, nil if the
// row did not exist (or was already deleted) at e.
func visibleRow(head *version, e uint64) Row {
	for v := head; v != nil; v = v.prev {
		if v.from <= e {
			if e < v.to {
				return v.row
			}
			return nil // e falls after this image died: row deleted at e
		}
	}
	return nil
}

// gcRec defers the cleanup of whatever a mutation superseded in one row:
// prune the chain nodes of id that died at or before epoch `to` (and their
// stale index postings) once every snapshot has moved past `to`.
type gcRec struct {
	id RowID
	to uint64
}

// mvccState is the shared versioning state of a Store: the committed
// epoch, the unpublished-stamp mark, the snapshot registry, and the
// structural read/write lock that lets snapshot readers run against tables
// while the single writer mutates them.
//
// Lock order: wmu (the owner's writer mutex) < rw < snapMu; snapMu and rw
// are never held together — horizon() completes before the sweep takes rw.
type mvccState struct {
	// wmu is the owner's writer-serialization mutex (the Store's mu). All
	// mutations and latest-reads run under it; the release-time sweep takes
	// it so it never races a writer or a latest-path reader.
	wmu *sync.Mutex

	// rw is the structural lock: snapshot readers hold RLock for the
	// duration of a statement; mutations and the garbage sweep take Lock
	// around the sections that restructure chains, maps, and postings.
	rw sync.RWMutex

	// committed is the published epoch: every statement stamped <= committed
	// is fully applied and visible. Mutations stamp committed+1.
	committed atomic.Uint64

	// dirty marks unpublished stamps; touched only inside Store.Write,
	// under writer serialization (wmu).
	dirty bool

	snapMu sync.Mutex
	snaps  map[uint64]int // active snapshot refcounts by epoch

	// gcTabs lists tables with pending cleanup records (guarded by rw.Lock;
	// pendingGC is the lock-free emptiness check).
	gcTabs    []*Table
	pendingGC atomic.Int64
}

func newMVCCState(wmu *sync.Mutex) *mvccState {
	return &mvccState{wmu: wmu, snaps: make(map[uint64]int)}
}

// stamp marks the epoch the current statement's mutations carry. Writer
// context only.
func (m *mvccState) stamp() uint64 {
	m.dirty = true
	return m.committed.Load() + 1
}

// publish makes the current statement's stamps visible and sweeps whatever
// garbage no snapshot still needs. Writer context only.
func (m *mvccState) publish() {
	if !m.dirty {
		return
	}
	m.dirty = false
	m.committed.Add(1)
	m.sweepLocked()
}

// horizon is the highest epoch every pruned version must be dead to: the
// oldest active snapshot's epoch, or the committed epoch when none is
// active (future snapshots acquire >= committed).
func (m *mvccState) horizon() uint64 {
	h := m.committed.Load()
	m.snapMu.Lock()
	for e := range m.snaps {
		if e < h {
			h = e
		}
	}
	m.snapMu.Unlock()
	return h
}

// sweepLocked prunes every registered table up to the current horizon.
// Caller holds the writer mutex; rw is taken here.
func (m *mvccState) sweepLocked() {
	if m.pendingGC.Load() == 0 {
		return
	}
	h := m.horizon()
	m.rw.Lock()
	keep := m.gcTabs[:0]
	for _, t := range m.gcTabs {
		if t.sweep(h) > 0 {
			keep = append(keep, t)
		} else {
			t.inGCList = false
		}
	}
	for i := len(keep); i < len(m.gcTabs); i++ {
		m.gcTabs[i] = nil
	}
	m.gcTabs = keep
	m.rw.Unlock()
}

// acquire pins the current committed epoch.
func (m *mvccState) acquire() *Snap {
	sn := new(Snap)
	m.pin(sn)
	return sn
}

// pin pins the current committed epoch into sn.
func (m *mvccState) pin(sn *Snap) {
	m.snapMu.Lock()
	e := m.committed.Load()
	m.snaps[e]++
	m.snapMu.Unlock()
	*sn = Snap{m: m, epoch: e}
}

// Snap is one pinned snapshot: reads against it see exactly the state
// published at its epoch. Release it when done so dead versions can be
// reclaimed; Release is idempotent and nil-safe.
type Snap struct {
	m     *mvccState
	epoch uint64
	done  bool

	// parts holds the per-shard snapshots of a sharded store's snapshot
	// (see shard.go); m is nil in that case, epoch is the sum of the part
	// epochs, and all visibility checks go through the parts.
	parts []*Snap
}

// Release drops the snapshot's pin. If it was the oldest pin holding back
// garbage, the dead versions are swept here — this is what the version-GC
// guarantee ("reclaimed after the last snapshot releases") rests on.
func (sn *Snap) Release() {
	if sn == nil || sn.done {
		return
	}
	sn.done = true
	if sn.parts != nil {
		for _, p := range sn.parts {
			p.Release()
		}
		return
	}
	m := sn.m
	m.snapMu.Lock()
	if n := m.snaps[sn.epoch]; n <= 1 {
		delete(m.snaps, sn.epoch)
	} else {
		m.snaps[sn.epoch] = n - 1
	}
	m.snapMu.Unlock()
	if m.pendingGC.Load() == 0 {
		return
	}
	m.wmu.Lock()
	m.sweepLocked()
	m.wmu.Unlock()
}

// sweep prunes this table's chains and stale postings for every cleanup
// record at or below the horizon, returning how many records remain.
// Caller holds the writer mutex and rw.Lock.
func (t *Table) sweep(h uint64) int {
	keep := t.garbage[:0]
	processed := 0
	for _, g := range t.garbage {
		if g.to > h {
			keep = append(keep, g)
			continue
		}
		processed++
		t.prune(g.id, h)
	}
	t.garbage = keep
	if processed > 0 {
		t.store.mv.pendingGC.Add(-int64(processed))
		t.rows.compact()
	}
	return len(keep)
}

// prune cuts the dead tail of id's chain. A fully dead row (head died at
// or before the horizon) is removed outright with every posting for every
// image it ever had; a live row keeps its postings for values any kept
// image still holds (value-reuse chains like A->B->A must not lose their
// posting for A).
func (t *Table) prune(id RowID, h uint64) {
	head := t.rows.get(id)
	if head == nil {
		return
	}
	if head.to <= h {
		for v := head; v != nil; v = v.prev {
			for i, idx := range t.indexes {
				removeFromIndex(idx, v.row[i], id)
			}
			for i, oi := range t.ordered {
				oi.remove(v.row[i], v.row[oi.by], id)
			}
		}
		t.rows.drop(id)
		return
	}
	// Chains are newest-first with monotonically decreasing death stamps:
	// the first node at or below the horizon starts the prunable tail.
	last := head
	for last.prev != nil && last.prev.to > h {
		last = last.prev
	}
	tail := last.prev
	if tail == nil {
		return
	}
	last.prev = nil
	for v := tail; v != nil; v = v.prev {
		for i, idx := range t.indexes {
			if !chainHolds(head, i, v.row[i], -1, nil) {
				removeFromIndex(idx, v.row[i], id)
			}
		}
		for i, oi := range t.ordered {
			if !chainHolds(head, i, v.row[i], oi.by, v.row[oi.by]) {
				oi.remove(v.row[i], v.row[oi.by], id)
			}
		}
	}
}

// chainHolds reports whether any kept image of the chain still holds the
// values a posting was made for (the comparison match applies to readers).
func chainHolds(head *version, ord int, val sqldb.Value, by int, bv sqldb.Value) bool {
	for v := head; v != nil; v = v.prev {
		if holds(v.row, ord, val, by, bv) {
			return true
		}
	}
	return false
}

// addGarbage registers a cleanup record. Caller holds the writer mutex and
// rw.Lock (mutation context).
func (t *Table) addGarbage(id RowID, to uint64) {
	mv := t.store.mv
	t.garbage = append(t.garbage, gcRec{id: id, to: to})
	mv.pendingGC.Add(1)
	if !t.inGCList {
		t.inGCList = true
		mv.gcTabs = append(mv.gcTabs, t)
	}
}
