package sqldb

// Arena is room for the result sets a connection hands out during one
// request, so that a request's results live as long as the request. It has
// three slabs: result slots with room for a one-row answer, row-pointer
// backing for multi-row answers, and the per-batch result lists. Reset
// clears what the slabs handed out and grows each to the demand of the
// request that just ended, up to maxSlab, so the next request's results
// take no allocation. Past a slab — a request larger than any before it, or
// a connection that never resets its arena — a result is allocated on its
// own, exactly as a nil arena allocates it, and no slab grows before the
// next Reset: an arena that is never reset retains nothing more.
//
// An Arena is not safe for concurrent use; a connection uses its own.
type Arena struct {
	slots []slot
	rows  [][]Value
	lists []*ResultSet
	// Demand since the last Reset, overflow included.
	nSlots, nRows, nLists int
}

// slot is a result set allocated together with room for its first row, so
// a one-row answer — the set and its one-row slice — is one object.
type slot struct {
	rs    ResultSet
	first [1][]Value
}

// take returns n elements of slab from *used on, or new ones past its end;
// *used counts the demand either way.
func take[T any](slab []T, used *int, n int) []T {
	k := *used
	*used += n
	if *used > len(slab) {
		return make([]T, n)
	}
	return slab[k:*used:*used]
}

// Result returns a result set over cols with a copy of rows: nil Rows when
// there are none, the slot's own room for one, and otherwise a slice with
// cap == len. A nil arena allocates it.
func (a *Arena) Result(cols []string, rows [][]Value, scanned int) *ResultSet {
	if a == nil {
		a = new(Arena)
	}
	s := &take(a.slots, &a.nSlots, 1)[0]
	s.rs = ResultSet{Cols: cols, RowsScanned: scanned}
	switch len(rows) {
	case 0:
	case 1:
		s.first[0] = rows[0]
		s.rs.Rows = s.first[:]
	default:
		s.rs.Rows = take(a.rows, &a.nRows, len(rows))
		copy(s.rs.Rows, rows)
	}
	return &s.rs
}

// List returns an empty list with room for n result sets: one batch's.
func (a *Arena) List(n int) []*ResultSet {
	if a == nil {
		a = new(Arena)
	}
	return take(a.lists, &a.nLists, n)[:0]
}

// maxSlab bounds a slab: a connection that releases once, at the end of a
// long life, reports that life as its demand. (A page request returns at
// most about a hundred results and two hundred rows.)
const maxSlab = 1024

// reset clears what slab handed out and grows it to the demand, bounded.
func reset[T any](slab []T, used int) []T {
	clear(slab[:min(used, len(slab))])
	if used > len(slab) && len(slab) < maxSlab {
		return make([]T, min(used, maxSlab))
	}
	return slab
}

// Reset ends the request: every result set and list the slabs handed out
// is cleared — a result set still held reads as empty, nil Rows and Cols —
// and each slab grows toward the request's demand if that exceeded it.
func (a *Arena) Reset() {
	a.slots, a.rows, a.lists = reset(a.slots, a.nSlots), reset(a.rows, a.nRows), reset(a.lists, a.nLists)
	a.nSlots, a.nRows, a.nLists = 0, 0, 0
}
