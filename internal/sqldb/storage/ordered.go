package storage

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/sqldb"
)

// This file holds the two-column index (a, b): hashed on a exactly like a
// one-column index — it IS the index on a — with each posting list kept in
// (b value, row id) order instead of row-id order. That order is what lets
// `a = ? AND b >= ?` binary-search its way to the rows it returns and
// `a = ? ORDER BY b LIMIT k` read k postings instead of sorting them all,
// so neither grows with the rows ever posted under a.
//
// The superset rule of table.go carries over unchanged: an image's posting
// is removed by the deferred sweep, never inline, so each entry records the
// b it was inserted under and a reader accepts it only through match (the
// image it sees must still hold both values), or pristine. Two columns and
// no more: that is what the measured traffic needs, and a third would need
// a composite comparator and prefix rules nothing here would exercise.

// ordEntry is one posting of a two-column index. Entries order by
// sqldb.CompareOrder on b — the order ORDER BY sorts in, NULL first — then
// by id. Stored values share the column's type and a probe's bounds are
// checked against it by the planner, so nothing compared here is
// incomparable; a FLOAT ordering column is refused at DDL, so the order is
// total.
type ordEntry struct {
	b  sqldb.Value // the ordering column's value in the image posted
	id RowID
}

// ordIndex is one two-column index; by is the ordering column's ordinal.
type ordIndex struct {
	by    int
	lists map[sqldb.Value][]ordEntry
}

// seek returns the position of the first entry at or after (b, id).
func seek(es []ordEntry, b sqldb.Value, id RowID) int {
	return sort.Search(len(es), func(j int) bool {
		c := sqldb.CompareOrder(es[j].b, b)
		return c > 0 || (c == 0 && es[j].id >= id)
	})
}

// lastRun returns where the run of entries sharing the last entry's
// ordering value starts. It gallops back from the end, so the cost follows
// the run's length, not the list's.
func lastRun(es []ordEntry) int {
	b := es[len(es)-1].b
	lo, step := len(es)-1, 1 // es[lo] is in the run
	for lo-step >= 0 && sqldb.CompareOrder(es[lo-step].b, b) == 0 {
		lo -= step
		step *= 2
	}
	from := max(lo-step+1, 0) // es[from-1], if any, is not
	return from + sort.Search(lo-from, func(j int) bool { return sqldb.CompareOrder(es[from+j].b, b) == 0 })
}

// add posts (b, id) under a. Within one key both the ordering value and the
// row id usually ascend, so the common case is an append; anything else —
// an update of the ordering column, a cross-shard move — is placed by
// binary search, never by re-sorting the list.
func (oi *ordIndex) add(a, b sqldb.Value, id RowID) {
	if a == nil {
		return // NULLs are not indexed
	}
	es := oi.lists[a]
	if n := len(es); n > 0 {
		if c := sqldb.CompareOrder(es[n-1].b, b); c > 0 || (c == 0 && es[n-1].id >= id) {
			pos := seek(es, b, id)
			if es[pos].id == id && sqldb.CompareOrder(es[pos].b, b) == 0 {
				return
			}
			oi.lists[a] = slices.Insert(es, pos, ordEntry{b, id})
			return
		}
	}
	oi.lists[a] = append(es, ordEntry{b, id})
}

// remove drops the posting (b, id) under a, if present.
func (oi *ordIndex) remove(a, b sqldb.Value, id RowID) {
	if a == nil {
		return
	}
	es := oi.lists[a]
	pos := seek(es, b, id)
	if pos == len(es) || es[pos].id != id || sqldb.CompareOrder(es[pos].b, b) != 0 {
		return
	}
	if len(es) == 1 {
		delete(oi.lists, a)
		return
	}
	oi.lists[a] = cut(es, pos)
}

// buildOrdIndex posts every stored version of every row, sorting each list
// once at the end.
func buildOrdIndex(slots []rowSlot, a, by int) *ordIndex {
	oi := &ordIndex{by: by, lists: make(map[sqldb.Value][]ordEntry)}
	for _, s := range slots {
		for v := s.head; v != nil; v = v.prev {
			if k := v.row[a]; k != nil {
				oi.lists[k] = append(oi.lists[k], ordEntry{v.row[by], s.id})
			}
		}
	}
	same := func(x, y ordEntry) bool { return x.id == y.id && sqldb.CompareOrder(x.b, y.b) == 0 }
	for k, es := range oi.lists {
		slices.SortFunc(es, func(x, y ordEntry) int {
			if c := sqldb.CompareOrder(x.b, y.b); c != 0 {
				return c
			}
			return cmp.Compare(x.id, y.id)
		})
		oi.lists[k] = slices.CompactFunc(es, same)
	}
	return oi
}

// OrderedBy reports the ordering column of the two-column index hashed on
// column ordinal i; ok is false when i has no such index.
func (t *Table) OrderedBy(i int) (by int, ok bool) {
	if x := t.indexOn(i); x != nil && x.oi != nil {
		return x.oi.by, true
	}
	return -1, false
}

// Range bounds the ordering column of a probe; a nil bound is open. Bounds
// must be comparable with the column's values (the planner drops the ones
// that are not). A row whose ordering value is NULL lies inside only the
// fully open range.
type Range struct {
	Lo, Hi         sqldb.Value
	LoExcl, HiExcl bool
}

// window cuts the run of es that r admits, by binary search.
func (r Range) window(es []ordEntry) []ordEntry {
	if r.Lo == nil && r.Hi == nil {
		return es
	}
	const first, last = RowID(math.MinInt64), RowID(math.MaxInt64)
	lo, hi := 0, len(es)
	switch {
	case r.Lo == nil:
		lo = sort.Search(len(es), func(j int) bool { return es[j].b != nil })
	case r.LoExcl:
		lo = seek(es, r.Lo, last)
	default:
		lo = seek(es, r.Lo, first)
	}
	switch {
	case r.Hi == nil:
	case r.HiExcl:
		hi = seek(es, r.Hi, first)
	default:
		hi = seek(es, r.Hi, last)
	}
	if hi < lo {
		return nil
	}
	return es[lo:hi]
}

// Order is the order in which a probe delivers rows.
type Order int

const (
	// ByID is ascending row id: what a one-column index on a delivers.
	ByID Order = iota
	// ByKey is ascending ordering value, ties in ascending row id.
	ByKey
	// ByKeyDesc is descending ordering value with ties still in ascending
	// row id — a stable descending sort of the ByID stream.
	ByKeyDesc
)

// ordCursor walks one heap's share of a probe in ByKey or ByKeyDesc order.
type ordCursor struct {
	t    *Table
	snap *Snap
	ord  int
	nv   sqldb.Value
	by   int
	raw  bool       // pristine: every posting counts, no match needed
	desc bool       // ByKeyDesc
	rest []ordEntry // postings not yet walked
	run  []ordEntry // ByKeyDesc: the equal-value run being walked forward
	e    ordEntry
	row  Row
}

// next advances to the next posting that counts, false when exhausted.
func (c *ordCursor) next() bool {
	for {
		if c.desc && len(c.run) == 0 && len(c.rest) > 0 {
			k := lastRun(c.rest)
			c.run, c.rest = c.rest[k:], c.rest[:k]
		}
		switch {
		case c.desc && len(c.run) > 0:
			c.e, c.run = c.run[0], c.run[1:]
		case !c.desc && len(c.rest) > 0:
			c.e, c.rest = c.rest[0], c.rest[1:]
		default:
			return false
		}
		if c.raw {
			c.row = c.t.rows.get(c.e.id).row
			return true
		}
		if c.row = c.t.match(c.e.id, c.ord, c.nv, c.by, c.e.b, c.snap); c.row != nil {
			return true
		}
	}
}

// openCursor positions a cursor before this heap's first posting in r.
func (t *Table) openCursor(ord int, nv sqldb.Value, r Range, o Order, snap *Snap) ordCursor {
	oi := t.indexOn(ord).oi
	return ordCursor{t: t, snap: snap, ord: ord, nv: nv, by: oi.by,
		raw: t.pristine(snap), desc: o == ByKeyDesc, rest: r.window(oi.lists[nv])}
}

// before reports whether c's current posting is delivered before d's.
func (c *ordCursor) before(d *ordCursor) bool {
	k := sqldb.CompareOrder(c.e.b, d.e.b)
	if c.desc {
		k = -k
	}
	return k < 0 || (k == 0 && c.e.id < d.e.id)
}

// ProbeEach calls fn with the stored (read-only) image of every row visible
// to snap (live rows when snap is nil) whose column ord equals v and whose
// ordering value lies in r, in order o. Column ord must carry a two-column
// index. A bounded or ordered probe touches only the postings it delivers
// (plus stale ones between them): the bounds are binary-searched, and fn
// stops the walk by returning an error, which ProbeEach returns.
func (t *Table) ProbeEach(ord int, v sqldb.Value, r Range, o Order, snap *Snap, fn func(Row) error) error {
	nv, ok := t.eqKey(ord, v)
	if !ok {
		return nil
	}
	if p, psnap := t.keyedPart(ord, nv, snap); p != nil {
		return p.ProbeEach(ord, nv, r, o, psnap, fn)
	}
	if o == ByID {
		for _, it := range t.gather(ord, nv, r, snap) {
			if err := fn(it.row); err != nil {
				return err
			}
		}
		return nil
	}
	// One cursor per heap, merged on the fly so a LIMIT stops every part
	// early; a plain table is the one-cursor case of the same loop.
	var one [1]ordCursor
	curs := one[:0]
	if t.parts == nil {
		if c := t.openCursor(ord, nv, r, o, snap); c.next() {
			curs = append(curs, c)
		}
	}
	for i, p := range t.parts {
		if c := p.openCursor(ord, nv, r, o, partSnap(snap, i)); c.next() {
			curs = append(curs, c)
		}
	}
	for len(curs) > 0 {
		best := 0
		for i := 1; i < len(curs); i++ {
			if curs[i].before(&curs[best]) {
				best = i
			}
		}
		if err := fn(curs[best].row); err != nil {
			return err
		}
		if !curs[best].next() {
			curs = slices.Delete(curs, best, best+1)
		}
	}
	return nil
}
