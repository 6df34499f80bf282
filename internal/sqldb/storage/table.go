// Package storage implements the row store beneath the reproduction's SQL
// engine: typed tables with auto-assigned row ids, hash indexes on primary
// key and secondary columns (optionally with postings ordered by a second
// column, ordered.go), Store.Write — the one way to change a row, which
// makes each statement's writes visible in one step — and MVCC snapshot
// reads — epoch-stamped row versions (see mvcc.go) so a read batch can pin
// a consistent snapshot and execute in parallel with the single writer.
package storage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/sqldb"
)

// Column describes one table column.
type Column struct {
	Name       string
	Type       sqldb.Type
	PrimaryKey bool
}

// Row is one stored tuple; values align with the table's column order.
// Stored row images are immutable: once a version is linked its slice is
// never written again, which is what makes the read-only accessors
// (RowAt, LookupEach, ScanEach) safe to alias.
type Row []sqldb.Value

// RowID identifies a physical row within a table.
type RowID int64

// Table is a heap of versioned rows plus its indexes. Mutations and
// latest-reads are serialized by the owning Store's mutex; snapshot reads
// run concurrently under the store's structural read lock.
type Table struct {
	Name    string
	Columns []Column

	colIndex map[string]int // lower-cased column name -> ordinal
	pkCol    int            // -1 when no primary key

	// rows holds every row's newest version (chain newest-first) in id
	// order. A live row's head has to == liveEpoch; a deleted row keeps its
	// dead chain until the sweep reclaims it.
	rows     rowHeap
	liveRows int
	nextID   RowID

	// maxFrom is the highest version stamp ever created (monotonic). A
	// snapshot at epoch >= maxFrom with no pending garbage can use the raw
	// posting fast path: every posting id is a live, visible, single-image
	// row whose indexed value matches.
	maxFrom uint64

	// garbage holds this table's deferred cleanup records in stamp order;
	// inGCList marks registration with the store's sweep list. Guarded by
	// the structural write lock (mutation/sweep context).
	garbage  []gcRec
	inGCList bool

	// indexes holds one entry per indexed column in ascending ordinal
	// order, so a write ranges over a slice and a row violating two unique
	// constraints always names the same column. The primary key column
	// always has an index.
	indexes []index

	// store owns the table: its mvcc state versions the table's rows, its
	// Writer is the only way to change them, and DDL on the table (AddIndex)
	// advances its schema epoch so cached query plans recompile.
	store *Store

	// Sharded-store routing view state (see shard.go). parts is nil for a
	// plain table; when set, this table stores nothing itself — its heap,
	// postings and garbage list stay empty — and reads and writes go to the
	// per-shard part tables. partOrd is the partition column ordinal (-1:
	// spread rows by id).
	parts   []*Table
	partOrd int
}

// index is one indexed column: a one-column index, whose postings map each
// value to the ids of the rows holding it, kept sorted ascending — or a
// two-column index (see ordered.go), which IS its hashed column's index.
// Postings are supersets under MVCC: a superseded value's posting is removed
// by the deferred sweep, not inline, so every reader filters ids through
// match (or proves with pristine that it need not).
type index struct {
	col    int
	unique bool
	ids    map[sqldb.Value][]RowID // one-column index; nil for a two-column one
	oi     *ordIndex               // two-column index; nil for a one-column one
}

// same reports whether images r and old share their posting in x: the
// indexed value, and a two-column index's ordering value.
func (x *index) same(r, old Row) bool {
	return r[x.col] == old[x.col] && (x.oi == nil || r[x.oi.by] == old[x.oi.by])
}

// indexOn returns column ord's index, nil when it has none. A table has a
// handful of indexes, so a walk beats a map.
func (t *Table) indexOn(ord int) *index {
	for k := range t.indexes {
		if t.indexes[k].col == ord {
			return &t.indexes[k]
		}
	}
	return nil
}

// newTable builds an empty table of store s from column definitions.
func newTable(s *Store, name string, cols []Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: table %q has no columns", name)
	}
	t := &Table{
		Name:     name,
		Columns:  cols,
		colIndex: make(map[string]int, len(cols)),
		pkCol:    -1,
		nextID:   1,
		store:    s,
	}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := t.colIndex[key]; dup {
			return nil, fmt.Errorf("storage: table %q: duplicate column %q", name, c.Name)
		}
		t.colIndex[key] = i
		if c.PrimaryKey {
			if t.pkCol != -1 {
				return nil, fmt.Errorf("storage: table %q: multiple primary keys", name)
			}
			t.pkCol = i
		}
	}
	if t.pkCol >= 0 {
		t.indexes = []index{{col: t.pkCol, unique: true, ids: make(map[sqldb.Value][]RowID)}}
	}
	return t, nil
}

// ColOrdinal resolves a column name (case-insensitive) to its ordinal.
func (t *Table) ColOrdinal(name string) (int, bool) {
	i, ok := t.colIndex[strings.ToLower(name)]
	return i, ok
}

// PKOrdinal returns the primary key column ordinal, or -1.
func (t *Table) PKOrdinal() int { return t.pkCol }

// NumRows reports the number of live rows (a view's are its parts').
func (t *Table) NumRows() int {
	n := t.liveRows
	for _, p := range t.parts {
		n += p.liveRows
	}
	return n
}

// HasIndex reports whether column ordinal i is indexed, by a one-column
// index or as the hashed column of a two-column one.
func (t *Table) HasIndex(i int) bool { return t.indexOn(i) != nil }

// AddIndex creates a hash index over the named column, populating it from
// every stored version (dead-but-unswept images included, so snapshots
// older than the DDL still find their rows through it).
func (t *Table) AddIndex(col string, unique bool) error { return t.addIndex(col, "", unique) }

// AddOrderedIndex creates the two-column index (col, by): hashed on col,
// each posting list ordered by the row's by value (see ordered.go).
func (t *Table) AddOrderedIndex(col, by string) error { return t.addIndex(col, by, false) }

// addIndex builds either kind of index; by is "" for a one-column index.
func (t *Table) addIndex(col, by string, unique bool) error {
	i, ok := t.ColOrdinal(col)
	if !ok {
		return fmt.Errorf("storage: table %q: no column %q", t.Name, col)
	}
	if t.HasIndex(i) {
		return fmt.Errorf("storage: table %q: column %q already indexed", t.Name, col)
	}
	byOrd := -1
	if by != "" {
		if byOrd, ok = t.ColOrdinal(by); !ok {
			return fmt.Errorf("storage: table %q: no column %q", t.Name, by)
		}
		if byOrd == i {
			return fmt.Errorf("storage: table %q: index on %q cannot be ordered by %q itself", t.Name, col, by)
		}
		// Postings are binary-searched, which needs a total order; NaN has no
		// place in one.
		if t.Columns[byOrd].Type == sqldb.TypeFloat {
			return fmt.Errorf("storage: table %q: ordering column %q is FLOAT", t.Name, by)
		}
	}
	if unique {
		// Rows are visited in id order, so the duplicate named in the error
		// is the same one every run and at every shard count.
		seen := make(map[sqldb.Value]bool)
		var dup sqldb.Value
		t.scan(nil, func(_ RowID, r Row) bool {
			if r[i] == nil {
				return true
			}
			if seen[r[i]] {
				dup = r[i]
				return false
			}
			seen[r[i]] = true
			return true
		})
		if dup != nil {
			return fmt.Errorf("storage: table %q: duplicate value %v violates unique index on %q", t.Name, dup, col)
		}
	}
	// A view's parts index their own rows (each bumping its shard's schema
	// epoch); the view itself stores none and only records the index.
	for _, p := range t.parts {
		if err := p.addIndex(col, by, unique); err != nil {
			return err
		}
	}
	x := index{col: i, unique: unique}
	if byOrd < 0 {
		x.ids = make(map[sqldb.Value][]RowID)
		for _, s := range t.rows.slots {
			for v := s.head; v != nil; v = v.prev {
				x.add(v.row, s.id)
			}
		}
	} else {
		x.oi = buildOrdIndex(t.rows.slots, i, byOrd)
	}
	t.store.mv.rw.Lock()
	t.indexes = append(t.indexes, x)
	slices.SortFunc(t.indexes, func(a, b index) int { return a.col - b.col })
	t.store.mv.rw.Unlock()
	t.store.epoch.Add(1)
	return nil
}

// add posts image r of row id in x.
func (x *index) add(r Row, id RowID) {
	if x.oi != nil {
		x.oi.add(r[x.col], r[x.oi.by], id)
		return
	}
	v := r[x.col]
	if v == nil {
		return // NULLs are not indexed, matching common SQL behaviour
	}
	ids := x.ids[v]
	// Row ids are assigned in increasing order, so the common case is an
	// append that keeps the posting list sorted; an update to this value or
	// a cross-shard move inserts an older id at the right position.
	if n := len(ids); n == 0 || ids[n-1] < id {
		x.ids[v] = append(ids, id)
		return
	}
	pos := sort.Search(len(ids), func(j int) bool { return ids[j] >= id })
	if pos < len(ids) && ids[pos] == id {
		return
	}
	x.ids[v] = slices.Insert(ids, pos, id)
}

// remove drops the posting of image r of row id from x, if present.
func (x *index) remove(r Row, id RowID) {
	if x.oi != nil {
		x.oi.remove(r[x.col], r[x.oi.by], id)
		return
	}
	v := r[x.col]
	ids := x.ids[v]
	pos := sort.Search(len(ids), func(j int) bool { return ids[j] >= id })
	if pos >= len(ids) || ids[pos] != id {
		return
	}
	if len(ids) == 1 {
		delete(x.ids, v)
		return
	}
	x.ids[v] = cut(ids, pos)
}

// cut removes es[pos] by moving the shorter side of it: the prefix shifts
// right and the list is resliced from its front, or the suffix shifts left.
// A list consumed from its front (a queue's oldest rows) pays O(1) a
// removal, not a move of everything behind it.
func cut[E any](es []E, pos int) []E {
	if pos < len(es)/2 {
		copy(es[1:pos+1], es[:pos])
		clear(es[:1])
		return es[1:]
	}
	return slices.Delete(es, pos, pos+1)
}

// pristine reports whether a reader at snap (the latest state when nil) may
// take a posting list at face value: nothing awaits the sweep and no image
// is newer than the reader, so every posting id is a single-image row that
// the reader sees and that holds the indexed value. It is the one shortcut
// past match, kept by LookupEach and by Lookup's aliasing return.
func (t *Table) pristine(snap *Snap) bool {
	return len(t.garbage) == 0 && (snap == nil || snap.epoch >= t.maxFrom)
}

// match is the posting rule, defined here and nowhere else: posting id in
// the list of value nv of column ord counts for a reader at snap iff the
// image of id that reader sees still holds nv — and, for a two-column
// index's posting, still holds bv in the ordering column by (by is -1 for a
// one-column posting): a row whose ordering value moved is posted at both
// places until the sweep, and must count at exactly one. It returns that
// image, nil for a stale posting (the row is deleted, not yet created,
// reclaimed, or holds other values at snap). Runs on a plain table or a
// part.
func (t *Table) match(id RowID, ord int, nv sqldb.Value, by int, bv sqldb.Value, snap *Snap) Row {
	if r := visibleTo(t.rows.get(id), snap); r != nil && holds(r, ord, nv, by, bv) {
		return r
	}
	return nil
}

// holds reports whether image r carries the values a posting was made for.
func holds(r Row, ord int, nv sqldb.Value, by int, bv sqldb.Value) bool {
	return r[ord] == nv && (by < 0 || r[by] == bv)
}

// uniqueConflict reports whether a live row other than exclude already
// holds v in unique column ord — table-wide: a view asks every part, and
// its own empty postings add nothing. Writer context.
func (t *Table) uniqueConflict(ord int, v sqldb.Value, exclude RowID) bool {
	for _, p := range t.parts {
		if p.uniqueConflict(ord, v, exclude) {
			return true
		}
	}
	for _, id := range t.indexOn(ord).ids[v] {
		if id != exclude && t.match(id, ord, v, -1, nil, nil) != nil {
			return true
		}
	}
	return false
}

// validate is the one admission check every row image passes, on plain
// tables and views alike: arity, per-column coercion — in place, since row
// is the caller's to give (see Writer.Insert); a value that already has its
// column's type is kept as given, not boxed again — then the unique
// constraints, walking the index slice in ascending column order. old is
// the image being replaced and exclude its id (nil and -1 for an insert); a
// unique value old already holds is not re-checked. A rejected row leaves
// the table untouched.
func (t *Table) validate(row, old Row, exclude RowID) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("storage: table %q: got %d values, want %d", t.Name, len(row), len(t.Columns))
	}
	for i, v := range row {
		cv, err := sqldb.Coerce(sqldb.Normalize(v), t.Columns[i].Type)
		if err != nil {
			return fmt.Errorf("storage: table %q column %q: %w", t.Name, t.Columns[i].Name, err)
		}
		row[i] = cv
	}
	for _, x := range t.indexes {
		i := x.col
		if !x.unique || row[i] == nil || (old != nil && sqldb.Equal(row[i], old[i])) {
			continue
		}
		if t.uniqueConflict(i, row[i], exclude) {
			return fmt.Errorf("storage: table %q: duplicate key %v for column %q", t.Name, row[i], t.Columns[i].Name)
		}
	}
	return nil
}

// insert validates, coerces, and stores a row, returning its id (see
// Writer.Insert). Ids come from the table's own allocator — a view's parts
// share the view's, so id order is insertion order at any shard count.
func (t *Table) insert(vals Row) (RowID, error) {
	if err := t.validate(vals, nil, -1); err != nil {
		return 0, err
	}
	id := t.nextID
	t.nextID++
	t.home(vals, id).install(id, vals)
	return id, nil
}

// install links row as the live image of id in this heap (a plain table or
// a part).
func (t *Table) install(id RowID, row Row) {
	t.store.mv.rw.Lock()
	t.prepend(id, row)
	t.store.mv.rw.Unlock()
}

// prepend installs row as the new live head for id. Whatever it supersedes
// (a live image, or the dead chain a row left when it moved off this part)
// becomes deferred garbage. An update in place posts only the indexes whose
// values changed: the superseded live head holds the rest, so their
// postings stand — the sweep keeps a posting while any kept image holds it.
// Caller holds the structural write lock.
func (t *Table) prepend(id RowID, row Row) {
	stamp := t.store.mv.stamp()
	prev := t.rows.get(id)
	wasLive := prev != nil && prev.to == liveEpoch
	if wasLive {
		prev.to = stamp
	}
	t.rows.set(id, &version{row: row, from: stamp, to: liveEpoch, prev: prev})
	for k := range t.indexes {
		if x := &t.indexes[k]; !wasLive || !x.same(row, prev.row) {
			x.add(row, id)
		}
	}
	if stamp > t.maxFrom {
		t.maxFrom = stamp
	}
	if prev != nil {
		t.addGarbage(id, prev.to)
	}
	if !wasLive {
		t.liveRows++
	}
}

// RowAt returns the stored row image visible to snap (the live image when
// snap is nil). The returned slice is the immutable stored image: callers
// must treat it as read-only.
func (t *Table) RowAt(id RowID, snap *Snap) (Row, bool) {
	// An id is visible on at most one part at any snapshot epoch (cross-shard
	// moves publish atomically under snapGate); the view's own heap is empty.
	for i, p := range t.parts {
		if r := visibleTo(p.rows.get(id), partSnap(snap, i)); r != nil {
			return r, true
		}
	}
	r := visibleTo(t.rows.get(id), snap)
	return r, r != nil
}

// delete removes a row, returning the removed contents (see
// Writer.Delete). Under MVCC the image is only superseded (to-stamped);
// the chain and its postings are reclaimed by the sweep once no snapshot
// can see them.
func (t *Table) delete(id RowID) (Row, bool) {
	p, head := t.holder(id)
	if p == nil {
		return nil, false
	}
	mv := p.store.mv
	mv.rw.Lock()
	stamp := mv.stamp()
	head.to = stamp
	p.liveRows--
	p.addGarbage(id, stamp)
	mv.rw.Unlock()
	return head.row, true
}

// update replaces the row contents, returning the previous contents (see
// Writer.Update). On a view whose new partition value hashes to a
// different shard the row moves: the delete and the reinsert belong to the
// statement's one Write, which publishes every shard under snapGate, so no
// snapshot ever sees the row on zero or two shards.
func (t *Table) update(id RowID, vals Row) (Row, error) {
	cur, head := t.holder(id)
	if cur == nil {
		return nil, fmt.Errorf("storage: table %q: no row %d", t.Name, id)
	}
	if err := t.validate(vals, head.row, id); err != nil {
		return nil, err
	}
	dst := t.home(vals, id)
	if dst != cur {
		cur.delete(id)
	}
	dst.install(id, vals)
	return head.row, nil
}

// eqKey maps an equality key onto column ord's type, the type of the values
// the column's index and the shard router are keyed by, so a lookup finds
// exactly the rows a WHERE comparison (sqldb.Equal) matches: an integral
// float on an INT column becomes its int64, an int on a FLOAT column its
// float64. ok is false when no row can match: a non-integral float (or one
// past the int64 range) on an INT column. Other keys, NULL included, keep
// their normalized value; a key of another type finds no posting.
func (t *Table) eqKey(ord int, v sqldb.Value) (key sqldb.Value, ok bool) {
	nv := sqldb.Normalize(v)
	switch x := nv.(type) {
	case float64:
		if t.Columns[ord].Type == sqldb.TypeInt {
			if x != math.Trunc(x) || x < math.MinInt64 || x >= math.MaxInt64 {
				return nil, false
			}
			return int64(x), true
		}
	case int64:
		if t.Columns[ord].Type == sqldb.TypeFloat {
			return float64(x), true
		}
	}
	return nv, true
}

// Lookup returns the ids of live rows whose indexed column i equals v, in
// ascending id order for determinism. On the pristine fast path (no
// pending garbage) the returned slice aliases the index's posting list: it
// is valid until the next mutation of the table and must not be modified
// by the caller. With garbage pending the posting superset is filtered
// through match, so results — and scanned-row counts derived from them —
// never depend on sweep timing.
func (t *Table) Lookup(i int, v sqldb.Value) []RowID {
	nv, ok := t.eqKey(i, v)
	x := t.indexOn(i)
	if !ok || x == nil {
		return nil
	}
	if t.parts != nil || x.oi != nil {
		if p, _ := t.keyedPart(i, nv, nil); p != nil {
			return p.Lookup(i, nv)
		}
		items := t.gather(i, nv, Range{}, nil)
		out := make([]RowID, len(items))
		for k, it := range items {
			out[k] = it.id
		}
		return out
	}
	ids := x.ids[nv]
	if t.pristine(nil) || len(ids) == 0 {
		return ids
	}
	out := make([]RowID, 0, len(ids))
	for _, id := range ids {
		if t.match(id, i, nv, -1, nil, nil) != nil {
			out = append(out, id)
		}
	}
	return out
}

// LookupEach calls fn with the stored row image of every row visible to
// snap (live rows when snap is nil) whose indexed column ord equals v, in
// ascending id order. Rows are passed without cloning: read-only. Stops on
// the first error, returning it.
func (t *Table) LookupEach(ord int, v sqldb.Value, snap *Snap, fn func(Row) error) error {
	nv, ok := t.eqKey(ord, v)
	x := t.indexOn(ord)
	if !ok || x == nil {
		return nil
	}
	if t.parts != nil || x.oi != nil {
		if p, psnap := t.keyedPart(ord, nv, snap); p != nil {
			return p.LookupEach(ord, nv, psnap, fn)
		}
		for _, it := range t.gather(ord, nv, Range{}, snap) {
			if err := fn(it.row); err != nil {
				return err
			}
		}
		return nil
	}
	ids := x.ids[nv]
	if t.pristine(snap) {
		for _, id := range ids {
			if err := fn(t.rows.get(id).row); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range ids {
		if r := t.match(id, ord, nv, -1, nil, snap); r != nil {
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// scan calls fn with the id and stored (read-only) image of every row
// visible to snap (live rows when snap is nil) in ascending id order — the
// heap's own order — until fn returns false.
func (t *Table) scan(snap *Snap, fn func(RowID, Row) bool) {
	if t.parts != nil {
		t.shardScan(snap, fn)
		return
	}
	for _, s := range t.rows.slots {
		if r := visibleTo(s.head, snap); r != nil && !fn(s.id, r) {
			return
		}
	}
}

// Scan calls fn for every live row in ascending id order. The row passed to
// fn must not be mutated.
func (t *Table) Scan(fn func(RowID, Row) bool) { t.scan(nil, fn) }

// ScanEach calls fn with the stored (read-only) image of every row visible
// to snap (live rows when snap is nil), in ascending id order. Stops on
// the first error, returning it. A plain table's rows go to fn straight
// from the heap: this is every unindexed SELECT's per-row loop.
func (t *Table) ScanEach(snap *Snap, fn func(Row) error) (err error) {
	if t.parts != nil {
		t.shardScan(snap, func(_ RowID, r Row) bool {
			err = fn(r)
			return err == nil
		})
		return err
	}
	for _, s := range t.rows.slots {
		if r := visibleTo(s.head, snap); r != nil {
			if err := fn(r); err != nil {
				return err
			}
		}
	}
	return nil
}

// Store is a named collection of tables guarded by one writer mutex; the
// engine serializes Writes and latest-reads through it. Snapshot reads
// do NOT take it: they pin an epoch (Snapshot) and run under the
// structural read lock (ReadLock), concurrent with each other and blocked
// only for the instants a writer restructures a table.
type Store struct {
	mu     sync.Mutex
	tables map[string]*Table

	// epoch counts schema changes (CREATE TABLE, CREATE INDEX). The
	// prepared-plan cache keys compiled plans by (SQL text, epoch): a DDL
	// statement bumps the epoch, invalidating every cached plan lazily.
	epoch atomic.Uint64

	mv *mvccState

	// shards is non-nil for a sharded coordinator store (see shard.go):
	// every table registered here is a routing view over one part table per
	// shard store. snapGate serializes cross-shard snapshot acquisition
	// against cross-shard statement publication, making multi-shard
	// statements atomically visible.
	shards   []*Store
	snapGate sync.Mutex

	// w is the store's one Writer, handed to each Write's fn.
	w Writer
}

// NewStore creates an empty store.
func NewStore() *Store {
	s := &Store{tables: make(map[string]*Table)}
	s.mv = newMVCCState(&s.mu)
	return s
}

// Lock acquires the writer mutex. Callers pair it with Unlock.
func (s *Store) Lock() { s.mu.Lock() }

// Unlock releases the writer mutex.
func (s *Store) Unlock() { s.mu.Unlock() }

// ReadLock acquires the structural lock in read mode — the snapshot
// execution path. A sharded store locks the coordinator's then every
// shard's, in fixed order. Pair with ReadUnlock around one statement.
func (s *Store) ReadLock() {
	s.mv.rw.RLock()
	for _, sh := range s.shards {
		sh.mv.rw.RLock()
	}
}

// ReadUnlock releases the structural read lock.
func (s *Store) ReadUnlock() {
	for _, sh := range s.shards {
		sh.mv.rw.RUnlock()
	}
	s.mv.rw.RUnlock()
}

// Snapshot pins the current committed epoch for consistent reads — on a
// sharded store, every shard's epoch at one gated instant. Release it when
// done.
func (s *Store) Snapshot() *Snap {
	if s.shards != nil {
		return s.snapshotAll()
	}
	return s.mv.acquire()
}

// Repin pins sn again at the current committed epoch, reusing its memory:
// the owner of a snapshot it has released (a DB worker between read
// batches) takes the next one without allocating. sn must come from this
// store's Snapshot and be released.
func (s *Store) Repin(sn *Snap) {
	if !sn.done {
		panic("storage: Repin of a snapshot that is still pinned")
	}
	if s.shards != nil {
		s.pinAll(sn)
		return
	}
	s.mv.pin(sn)
}

// Write runs one statement's mutations: fn changes rows through w, and
// every row it changes carries one version stamp, published — made visible
// to snapshots in one step — when Write returns, on every path: fn's
// success, its error and its panic alike. The caller holds the writer
// mutex; DDL (CreateTable, AddIndex) runs outside Write, and a Write
// inside fn panics.
//
// Publication is not rollback: when fn fails after some mutations, those
// mutations publish all the same. A multi-row INSERT that hits a duplicate
// key on its third row leaves its first two rows committed.
func (s *Store) Write(fn func(w *Writer) error) error {
	if s.w.open {
		panic("storage: Write inside Write")
	}
	s.w.open = true
	defer s.publish()
	return fn(&s.w)
}

// publish closes the open Write: the statement's stamps become visible
// (on a sharded store every shard's, under snapGate, so a snapshot sees
// all of a cross-shard statement or none of it) and whatever garbage no
// snapshot still pins is swept.
func (s *Store) publish() {
	s.w.open = false
	if s.shards == nil {
		s.mv.publish()
		return
	}
	s.snapGate.Lock()
	for _, sh := range s.shards {
		sh.mv.publish()
	}
	s.snapGate.Unlock()
}

// Writer changes rows: its methods are the only way to, and Store.Write is
// the only way to get a live one, valid until that Write returns.
type Writer struct {
	open bool
}

// check panics unless w is inside its Write and t belongs to w's store: a
// mutation outside a Write — through a Writer kept past it, or a zero
// Writer — would publish with some later statement.
func (w *Writer) check(t *Table) {
	if !w.open || &t.store.w != w {
		panic("storage: Writer used outside its Write or on another store's table")
	}
}

// Insert validates, coerces, and stores a row in t, returning its id.
//
// Insert takes ownership of vals: each value is coerced in place and, once
// admitted, the slice itself becomes the stored (immutable) image. The
// caller must not write to vals afterwards, whether the row was admitted or
// rejected; reading it is safe.
func (w *Writer) Insert(t *Table, vals Row) (RowID, error) {
	w.check(t)
	return t.insert(vals)
}

// Update replaces the contents of row id of t, returning the previous
// contents. It takes ownership of vals exactly as Insert does.
func (w *Writer) Update(t *Table, id RowID, vals Row) (Row, error) {
	w.check(t)
	return t.update(id, vals)
}

// Delete removes row id of t, returning the removed contents; false when
// no such row is live.
func (w *Writer) Delete(t *Table, id RowID) (Row, bool) {
	w.check(t)
	return t.delete(id)
}

// Epoch reports the store's schema epoch. It is safe to read without the
// store lock.
func (s *Store) Epoch() uint64 { return s.epoch.Load() }

// CreateTable registers a new table and bumps the schema epoch. The caller
// must hold the writer mutex.
func (s *Store) CreateTable(name string, cols []Column) (*Table, error) {
	key := strings.ToLower(name)
	if _, exists := s.tables[key]; exists {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	if s.shards != nil {
		return s.createSharded(key, name, cols)
	}
	t, err := newTable(s, name, cols)
	if err != nil {
		return nil, err
	}
	s.mv.rw.Lock()
	s.tables[key] = t
	s.mv.rw.Unlock()
	s.epoch.Add(1)
	return t, nil
}

// Table resolves a table by name (case-insensitive). Callers hold the
// writer mutex or the structural read lock.
func (s *Store) Table(name string) (*Table, bool) {
	t, ok := s.tables[strings.ToLower(name)]
	return t, ok
}

// TableNames lists tables in sorted order.
func (s *Store) TableNames() []string {
	names := make([]string, 0, len(s.tables))
	for _, t := range s.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}
