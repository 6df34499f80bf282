package storage

// rowSlot is one stored row: its id and the newest version of its chain.
type rowSlot struct {
	id   RowID
	head *version
}

// rowHeap is a table's row store: one slot per row, kept in ascending id
// order as rows are inserted and reclaimed, so every scan enumerates rows
// in id order with no per-scan sort or allocation. Ids are issued
// ascending, which makes insert an append; only a cross-shard move onto a
// part inserts in the middle. A reclaimed row leaves a tombstone (head == nil) that scans
// skip and compact drops once tombstones outnumber rows, so reclaim is
// amortized O(1) whatever the table size.
//
// The heap is not synchronized: writers hold the structural write lock,
// readers the structural read lock or the writer mutex (see mvccState).
type rowHeap struct {
	slots []rowSlot
	dead  int // tombstones awaiting compact
}

// find returns id's slot position, or where it would be inserted.
func (h *rowHeap) find(id RowID) (int, bool) {
	n := len(h.slots)
	if n == 0 || id < h.slots[0].id {
		return 0, false
	}
	if id > h.slots[n-1].id {
		return n, false // a fresh id: every insert probes for one
	}
	// Ids ascend by at least one per slot, so id sits at or before its
	// offset from the first id — exactly there while ids are dense (an
	// unsharded table nothing has been reclaimed from).
	lo, hi := 0, n
	if d := int(id - h.slots[0].id); d < n {
		if h.slots[d].id == id {
			return d, true
		}
		hi = d
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.slots[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < n && h.slots[lo].id == id
}

// get returns the newest version of id, nil when the heap holds no such row.
func (h *rowHeap) get(id RowID) *version {
	if i, ok := h.find(id); ok {
		return h.slots[i].head
	}
	return nil
}

// set installs head as the newest version of id.
func (h *rowHeap) set(id RowID, head *version) {
	if n := len(h.slots); n == 0 || h.slots[n-1].id < id {
		h.slots = append(h.slots, rowSlot{id, head})
		return
	}
	i, ok := h.find(id)
	if !ok {
		h.slots = append(h.slots, rowSlot{})
		copy(h.slots[i+1:], h.slots[i:])
		h.slots[i] = rowSlot{id, head}
		return
	}
	if h.slots[i].head == nil {
		h.dead--
	}
	h.slots[i].head = head
}

// drop reclaims id's row, leaving a tombstone.
func (h *rowHeap) drop(id RowID) {
	if i, ok := h.find(id); ok && h.slots[i].head != nil {
		h.slots[i].head = nil
		h.dead++
	}
}

// compact drops the tombstones once they outnumber the rows.
func (h *rowHeap) compact() {
	if h.dead*2 <= len(h.slots) {
		return
	}
	keep := h.slots[:0]
	for _, s := range h.slots {
		if s.head != nil {
			keep = append(keep, s)
		}
	}
	clear(h.slots[len(keep):])
	h.slots, h.dead = keep, 0
}

// visibleTo returns the image of a row visible to snap (the live image when
// snap is nil), nil if there is none — the row is reclaimed, deleted, or
// not yet created at the snapshot's epoch.
func visibleTo(head *version, snap *Snap) Row {
	if head == nil {
		return nil
	}
	if snap != nil {
		return visibleRow(head, snap.epoch)
	}
	if head.to != liveEpoch {
		return nil
	}
	return head.row
}

// rowCursor steps through a heap's rows visible to snap in id order; the
// sharded view merges one cursor per part.
type rowCursor struct {
	slots []rowSlot
	snap  *Snap
	id    RowID
	row   Row
}

// next advances to the next visible row, reporting false when exhausted.
func (c *rowCursor) next() bool {
	for len(c.slots) > 0 {
		s := c.slots[0]
		c.slots = c.slots[1:]
		if r := visibleTo(s.head, c.snap); r != nil {
			c.id, c.row = s.id, r
			return true
		}
	}
	return false
}
