package storage

import (
	"fmt"
	"hash/fnv"
	"sort"

	"repro/internal/sqldb"
)

// This file implements horizontal sharding: a coordinator Store that
// partitions every table's rows by hash of its primary-key value into N
// per-shard Stores, each keeping its own MVCC version chains, snapshot
// registry, and epoch GC. The engine and plan layers keep talking to ONE
// Store and ONE *Table per name — the coordinator's table is a routing
// view whose methods branch to the shard parts — so compiled plans, the
// SELECT executor, and the transaction undo log work unchanged.
//
// Determinism contract (what keeps the 150 golden pages and the virtual
// timeline byte-identical at any shard count): all parts share one global
// RowID allocator owned by the view, so global id order IS single-store
// insertion order; per-part lookups and scans yield RowID-ascending
// streams, and every fan-out merges them by ascending id (scans step one
// heap cursor per part, lookups merge gathered posting items) —
// reproducing exactly the row stream, and hence the RowsScanned counts
// and costs, a single store would produce.
//
// Concurrency contract: shard stores are created with the COORDINATOR's
// writer mutex as their mvccState.wmu, so a part snapshot's release-time
// sweep serializes against the one writer the engine already routes
// through the coordinator's Lock. Cross-shard snapshot acquisition and
// cross-shard statement publication both serialize on snapGate, so a
// snapshot either sees a whole statement on every shard it touched or
// none of it. Lock order: mu < snapGate < {shard rw, shard snapMu}; no
// path holds two shards' structural write locks at once.

// MaxShards bounds the shard count: shard sets travel as uint64 masks
// through the driver's occupancy model.
const MaxShards = 64

// NewShardedStore creates a store whose tables partition rows across n
// shard stores. n <= 1 returns a plain unsharded store; n is capped at
// MaxShards.
func NewShardedStore(n int) *Store {
	if n <= 1 {
		return NewStore()
	}
	if n > MaxShards {
		n = MaxShards
	}
	s := NewStore()
	s.shards = make([]*Store, n)
	for i := range s.shards {
		sh := &Store{tables: make(map[string]*Table)}
		// Shard MVCC state hangs off the coordinator's writer mutex: the
		// engine serializes all mutations through the coordinator, and a
		// part snapshot's release-time sweep must not race that writer.
		sh.mv = newMVCCState(&s.mu)
		s.shards[i] = sh
	}
	return s
}

// NumShards reports the store's shard count (1 for an unsharded store).
func (s *Store) NumShards() int {
	if s.shards == nil {
		return 1
	}
	return len(s.shards)
}

// Shard exposes shard store i — tests and DDL-epoch assertions.
func (s *Store) Shard(i int) *Store { return s.shards[i] }

// ShardOf is the partition function: FNV-1a over the canonical text of the
// normalized value, mod n. It is shared by the storage router, the plan
// layer's shard masks, and the merge optimizer's per-shard group split, so every layer agrees on which shard owns a key.
func ShardOf(v sqldb.Value, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(sqldb.Format(sqldb.Normalize(v))))
	return int(h.Sum32() % uint32(n))
}

// ShardBy reports the table's partition column ordinal and shard count.
// ok is false when keyed routing is impossible: the table belongs to an
// unsharded store, or has no primary key (rows spread by id, every keyed
// route degrades to a fan-out).
func (t *Table) ShardBy() (ord, n int, ok bool) {
	if t.parts == nil || t.partOrd < 0 {
		return -1, 1, false
	}
	return t.partOrd, len(t.parts), true
}

// shardFor routes a row image to its owning part: by hash of the partition
// column's value when one is set, by id otherwise (no primary key, or a
// NULL key — NULLs are not indexed, so co-location buys nothing).
func (t *Table) shardFor(row Row, id RowID) int {
	if t.partOrd >= 0 && row[t.partOrd] != nil {
		return ShardOf(row[t.partOrd], len(t.parts))
	}
	return int(uint64(id) % uint64(len(t.parts)))
}

// createSharded builds the routing view plus one part table per shard.
// Caller is CreateTable (writer mutex held, duplicate name already
// rejected).
func (s *Store) createSharded(key, name string, cols []Column) (*Table, error) {
	view, err := NewTable(name, cols)
	if err != nil {
		return nil, err
	}
	view.mv = s.mv
	view.schemaChanged = func() { s.epoch.Add(1) }
	view.partOrd = view.pkCol
	view.coord = s
	view.parts = make([]*Table, len(s.shards))
	for i, sh := range s.shards {
		part, err := sh.CreateTable(name, cols)
		if err != nil {
			return nil, err
		}
		view.parts[i] = part
	}
	s.mv.rw.Lock()
	s.tables[key] = view
	s.mv.rw.Unlock()
	s.epoch.Add(1)
	return view, nil
}

// beginStmtAll opens a statement publication scope on the coordinator and
// every shard; endStmtAll closes it, publishing all shards' mutations
// under snapGate so cross-shard visibility is atomic with respect to
// snapshot acquisition.
func (s *Store) beginStmtAll() {
	s.mv.depth++
	for _, sh := range s.shards {
		sh.mv.depth++
	}
}

func (s *Store) endStmtAll() {
	s.mv.depth--
	for _, sh := range s.shards {
		sh.mv.depth--
	}
	if s.mv.depth == 0 {
		s.snapGate.Lock()
		for _, sh := range s.shards {
			sh.mv.publish()
		}
		s.snapGate.Unlock()
		s.mv.publish()
	}
}

// snapshotAll pins every shard's committed epoch under snapGate. The
// returned coordinator snap's epoch is the sum of the part epochs — a
// monotone clock for callers; visibility always goes through the parts.
func (s *Store) snapshotAll() *Snap {
	s.snapGate.Lock()
	parts := make([]*Snap, len(s.shards))
	var sum uint64
	for i, sh := range s.shards {
		parts[i] = sh.mv.acquire()
		sum += parts[i].epoch
	}
	s.snapGate.Unlock()
	return &Snap{epoch: sum, parts: parts}
}

// partSnap selects the part snapshot for shard i (nil-safe: latest reads
// carry no snapshot at any layer).
func partSnap(snap *Snap, i int) *Snap {
	if snap == nil {
		return nil
	}
	return snap.parts[i]
}

// ---- scatter-gather -----------------------------------------------------

// idRow pairs a row image with its global id for fan-out merging.
type idRow struct {
	id  RowID
	row Row
}

// mergeParts k-way-merges per-part RowID-ascending item lists into one
// ascending stream — the gather step of a fan-out lookup. Parts hold
// disjoint ids, so ascending-id order is total; this merge is what makes
// the lookup emit the byte-identical row stream a single store would.
func mergeParts(lists [][]idRow) []idRow {
	total, nonEmpty, last := 0, 0, -1
	for i, l := range lists {
		total += len(l)
		if len(l) > 0 {
			nonEmpty++
			last = i
		}
	}
	if nonEmpty <= 1 {
		if last < 0 {
			return nil
		}
		return lists[last]
	}
	out := make([]idRow, 0, total)
	heads := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if best < 0 || l[heads[i]].id < lists[best][heads[best]].id {
				best = i
			}
		}
		out = append(out, lists[best][heads[best]])
		heads[best]++
	}
	return out
}

// lookupItems collects (id, row) pairs visible to snap whose indexed
// column ord equals nv, ascending by id — LookupEach's three visibility
// paths, with ids retained for the cross-part merge. Runs on a part.
func (t *Table) lookupItems(ord int, nv sqldb.Value, snap *Snap) []idRow {
	idx, ok := t.indexes[ord]
	if !ok {
		return nil
	}
	ids := idx[nv]
	if len(ids) == 0 {
		return nil
	}
	out := make([]idRow, 0, len(ids))
	if snap == nil {
		if len(t.garbage) == 0 {
			for _, id := range ids {
				out = append(out, idRow{id, t.rows.get(id).row})
			}
			return out
		}
		for _, id := range ids {
			if head := t.rows.get(id); head != nil && head.to == liveEpoch && head.row[ord] == nv {
				out = append(out, idRow{id, head.row})
			}
		}
		return out
	}
	e := snap.epoch
	if len(t.garbage) == 0 && e >= t.maxFrom {
		for _, id := range ids {
			out = append(out, idRow{id, t.rows.get(id).row})
		}
		return out
	}
	for _, id := range ids {
		if r := visibleRow(t.rows.get(id), e); r != nil && r[ord] == nv {
			out = append(out, idRow{id, r})
		}
	}
	return out
}

// ---- view-table routing -------------------------------------------------

// shardLookupEach is LookupEach for the view: a keyed route when the
// lookup column is the partition column (all matches co-locate), a
// fan-out + ascending-id merge otherwise.
func (t *Table) shardLookupEach(ord int, v sqldb.Value, snap *Snap, fn func(Row) error) error {
	if _, ok := t.indexes[ord]; !ok {
		return nil
	}
	nv := sqldb.Normalize(v)
	if ord == t.partOrd && nv != nil {
		i := ShardOf(nv, len(t.parts))
		return t.parts[i].LookupEach(ord, nv, partSnap(snap, i), fn)
	}
	lists := make([][]idRow, len(t.parts))
	for i, p := range t.parts {
		lists[i] = p.lookupItems(ord, nv, partSnap(snap, i))
	}
	for _, it := range mergeParts(lists) {
		if err := fn(it.row); err != nil {
			return err
		}
	}
	return nil
}

// shardLookup is Lookup for the view: live ids ascending.
func (t *Table) shardLookup(ord int, v sqldb.Value) []RowID {
	if _, ok := t.indexes[ord]; !ok {
		return nil
	}
	nv := sqldb.Normalize(v)
	if ord == t.partOrd && nv != nil {
		return t.parts[ShardOf(nv, len(t.parts))].Lookup(ord, nv)
	}
	var out []RowID
	for _, p := range t.parts {
		out = append(out, p.Lookup(ord, nv)...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// shardScan is scan for the view: a k-way merge of the parts' heaps. Parts
// hold disjoint ids in ascending order, so always stepping the cursor with
// the lowest id emits the byte-identical row stream a single store's heap
// would — without gathering or sorting anything.
func (t *Table) shardScan(snap *Snap, fn func(RowID, Row) bool) {
	curs := make([]rowCursor, 0, len(t.parts))
	for i, p := range t.parts {
		c := rowCursor{slots: p.rows.slots, snap: partSnap(snap, i)}
		if c.next() {
			curs = append(curs, c)
		}
	}
	for len(curs) > 0 {
		best := 0
		for i := 1; i < len(curs); i++ {
			if curs[i].id < curs[best].id {
				best = i
			}
		}
		if !fn(curs[best].id, curs[best].row) {
			return
		}
		if !curs[best].next() {
			curs = append(curs[:best], curs[best+1:]...)
		}
	}
}

// shardUniqueConflict checks a unique constraint on every part: a key must
// be unique table-wide, not per shard.
func (t *Table) shardUniqueConflict(ord int, v sqldb.Value, exclude RowID) bool {
	for _, p := range t.parts {
		if p.uniqueConflict(ord, v, exclude) {
			return true
		}
	}
	return false
}

// shardInsert validates and coerces at the view — reproducing Insert's
// error surface exactly — allocates the global id, and delegates storage
// to the owning part.
func (t *Table) shardInsert(vals Row) (RowID, error) {
	if len(vals) != len(t.Columns) {
		return 0, fmt.Errorf("storage: table %q: got %d values, want %d", t.Name, len(vals), len(t.Columns))
	}
	row := make(Row, len(vals))
	for i, v := range vals {
		cv, err := sqldb.Coerce(sqldb.Normalize(v), t.Columns[i].Type)
		if err != nil {
			return 0, fmt.Errorf("storage: table %q column %q: %w", t.Name, t.Columns[i].Name, err)
		}
		row[i] = cv
	}
	for _, i := range t.indexedCols() {
		if t.unique[i] && row[i] != nil && t.shardUniqueConflict(i, row[i], -1) {
			return 0, fmt.Errorf("storage: table %q: duplicate key %v for column %q", t.Name, row[i], t.Columns[i].Name)
		}
	}
	id := t.nextID
	t.nextID++
	t.parts[t.shardFor(row, id)].insertAt(id, row)
	return id, nil
}

// livePart finds the part currently holding a live image of id, -1 if
// none. Parts hold disjoint ids, so at most one can match.
func (t *Table) livePart(id RowID) int {
	for i, p := range t.parts {
		if visibleTo(p.rows.get(id), nil) != nil {
			return i
		}
	}
	return -1
}

// shardGet is Get for the view.
func (t *Table) shardGet(id RowID) (Row, bool) {
	for _, p := range t.parts {
		if r, ok := p.Get(id); ok {
			return r, true
		}
	}
	return nil, false
}

// shardRowAt is RowAt for the view: an id is visible on at most one part
// at any snapshot epoch (cross-shard moves publish atomically under
// snapGate).
func (t *Table) shardRowAt(id RowID, snap *Snap) (Row, bool) {
	for i, p := range t.parts {
		if r, ok := p.RowAt(id, partSnap(snap, i)); ok {
			return r, ok
		}
	}
	return nil, false
}

// shardDelete is Delete for the view.
func (t *Table) shardDelete(id RowID) (Row, bool) {
	if i := t.livePart(id); i >= 0 {
		return t.parts[i].Delete(id)
	}
	return nil, false
}

// shardUpdate is Update for the view. When the new partition value hashes
// to a different shard, the delete-and-reinsert pair runs inside one
// publication scope so no snapshot ever sees the row on zero or two
// shards.
func (t *Table) shardUpdate(id RowID, vals Row) (Row, error) {
	cur := t.livePart(id)
	if cur < 0 {
		return nil, fmt.Errorf("storage: table %q: no row %d", t.Name, id)
	}
	old := t.parts[cur].rows.get(id).row
	row := make(Row, len(vals))
	for i, v := range vals {
		cv, err := sqldb.Coerce(sqldb.Normalize(v), t.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("storage: table %q column %q: %w", t.Name, t.Columns[i].Name, err)
		}
		row[i] = cv
	}
	for _, i := range t.indexedCols() {
		if t.unique[i] && row[i] != nil && !sqldb.Equal(row[i], old[i]) && t.shardUniqueConflict(i, row[i], id) {
			return nil, fmt.Errorf("storage: table %q: duplicate key %v for column %q", t.Name, row[i], t.Columns[i].Name)
		}
	}
	dst := t.shardFor(row, id)
	if dst == cur {
		p := t.parts[cur]
		p.mv.rw.Lock()
		p.prepend(id, row)
		p.mv.rw.Unlock()
		p.mv.autoPublish()
		return old, nil
	}
	// Cross-shard move. Open a scope if the engine hasn't (direct storage
	// callers), so both shards publish together.
	own := t.coord.mv.depth == 0
	if own {
		t.coord.beginStmtAll()
	}
	t.parts[cur].Delete(id)
	t.parts[dst].insertAt(id, row)
	if own {
		t.coord.endStmtAll()
	}
	return old, nil
}

// shardInsertAt is the rollback/restore path for the view: place old under
// id on its owning part, first superseding any live image the undone
// mutation left on a different part (undo of a cross-shard move).
func (t *Table) shardInsertAt(id RowID, old Row) {
	dst := t.shardFor(old, id)
	if cur := t.livePart(id); cur >= 0 && cur != dst {
		t.parts[cur].Delete(id)
	}
	t.parts[dst].insertAt(id, old)
	if id >= t.nextID {
		t.nextID = id + 1
	}
}

// shardNumRows sums live rows across parts.
func (t *Table) shardNumRows() int {
	n := 0
	for _, p := range t.parts {
		n += p.liveRows
	}
	return n
}
