package storage

import (
	"cmp"
	"slices"

	"repro/internal/sqldb"
)

// This file implements horizontal sharding: a coordinator Store that
// partitions every table's rows by hash of its primary-key value into N
// per-shard Stores, each keeping its own MVCC version chains, snapshot
// registry, and epoch GC. The engine and plan layers keep talking to ONE
// Store and ONE *Table per name — the coordinator's table is a routing
// view whose methods branch to the shard parts — so compiled plans and the
// SELECT executor work unchanged.
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

// ShardOf is the partition function: FNV-1a (32-bit) over the canonical
// text of the normalized value — sqldb.Format's bytes — mod n. It places
// rows, and ShardBy routes keys with it, so the storage router and the
// plan layer's shard masks agree on which shard owns a key.
func ShardOf(v sqldb.Value, n int) int {
	if n <= 1 {
		return 0
	}
	var buf [64]byte
	h := uint32(2166136261)
	for _, c := range sqldb.AppendFormat(buf[:0], sqldb.Normalize(v)) {
		h = (h ^ uint32(c)) * 16777619
	}
	return int(h % uint32(n))
}

// ShardBy routes an equality key on column ord: shard is the one holding
// every row the key can match, found from the key mapped onto the column's
// type (eqKey), as the lookups find it. ok is false when keyed routing is
// impossible — the table belongs to an unsharded store or has no primary
// key (rows spread by id), ord is not the partition column, the key is
// NULL, or no row can equal it.
func (t *Table) ShardBy(ord int, v sqldb.Value) (shard int, ok bool) {
	if t.parts == nil || ord != t.partOrd {
		return 0, false
	}
	key, ok := t.eqKey(ord, v)
	if !ok || key == nil {
		return 0, false
	}
	return ShardOf(key, len(t.parts)), true
}

// A view differs from a plain table in two selectors and a gather; every
// write and read in table.go is written once against them.

// home is the table that stores a row image: t itself, or for a view the
// part the image routes to — by hash of the partition column's value when
// one is set, by id otherwise (no primary key, or a NULL key — NULLs are
// not indexed, so co-location buys nothing).
func (t *Table) home(row Row, id RowID) *Table {
	if t.parts == nil {
		return t
	}
	if t.partOrd >= 0 && row[t.partOrd] != nil {
		return t.parts[ShardOf(row[t.partOrd], len(t.parts))]
	}
	return t.parts[uint64(id)%uint64(len(t.parts))]
}

// holder is the table holding the live image of id, with that image's
// version: t itself, or for a view the one part that has it (parts hold
// disjoint live ids; the view's own heap is empty). nil, nil when the row
// is not live.
func (t *Table) holder(id RowID) (*Table, *version) {
	for _, p := range t.parts {
		if head := p.rows.get(id); visibleTo(head, nil) != nil {
			return p, head
		}
	}
	if head := t.rows.get(id); visibleTo(head, nil) != nil {
		return t, head
	}
	return nil, nil
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
	sn := &Snap{parts: make([]*Snap, len(s.shards))}
	for i := range sn.parts {
		sn.parts[i] = new(Snap)
	}
	s.pinAll(sn)
	return sn
}

// pinAll pins every shard's committed epoch into sn's parts under snapGate.
func (s *Store) pinAll(sn *Snap) {
	s.snapGate.Lock()
	var sum uint64
	for i, sh := range s.shards {
		sh.mv.pin(sn.parts[i])
		sum += sn.parts[i].epoch
	}
	s.snapGate.Unlock()
	*sn = Snap{epoch: sum, parts: sn.parts}
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

// collect is one heap's share of a lookup: the (id, image) pairs of the
// postings of nv in column ord that match at snap, ascending by id. r
// narrows a two-column index's postings by their ordering value (it is the
// zero Range for a one-column index, whose postings are in id order
// already).
func (t *Table) collect(ord int, nv sqldb.Value, r Range, snap *Snap) []idRow {
	if oi := t.ordered[ord]; oi != nil {
		es := r.window(oi.lists[nv])
		out := make([]idRow, 0, len(es))
		for _, e := range es {
			if row := t.match(e.id, ord, nv, oi.by, e.b, snap); row != nil {
				out = append(out, idRow{e.id, row})
			}
		}
		slices.SortFunc(out, func(x, y idRow) int { return cmp.Compare(x.id, y.id) })
		return out
	}
	ids := t.indexes[ord][nv]
	if len(ids) == 0 {
		return nil
	}
	out := make([]idRow, 0, len(ids))
	for _, id := range ids {
		if r := t.match(id, ord, nv, -1, nil, snap); r != nil {
			out = append(out, idRow{id, r})
		}
	}
	return out
}

// gather is the fan-out lookup: the matches of every heap — each part of a
// view, or the plain table itself — as one ascending-id stream.
func (t *Table) gather(ord int, nv sqldb.Value, r Range, snap *Snap) []idRow {
	if t.parts == nil {
		return t.collect(ord, nv, r, snap)
	}
	lists := make([][]idRow, len(t.parts))
	for i, p := range t.parts {
		lists[i] = p.collect(ord, nv, r, partSnap(snap, i))
	}
	return mergeParts(lists)
}

// keyedPart is the view's keyed route: a lookup on the partition column
// finds all its matches co-located on one part, returned with that part's
// snapshot. nil means fan out (another column, or a NULL key) — or that t
// is no view.
func (t *Table) keyedPart(ord int, nv sqldb.Value, snap *Snap) (*Table, *Snap) {
	i, ok := t.ShardBy(ord, nv)
	if !ok {
		return nil, nil
	}
	return t.parts[i], partSnap(snap, i)
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
