package plan

import (
	"bytes"

	"repro/internal/sqldb"
)

// Row identity for DISTINCT and GROUP BY used to be a '\x1f'-joined
// sqldb.Format string per row — one string allocation per row plus the
// formatting garbage. The hash path below encodes each row into a reusable
// scratch buffer (byte-identical to the old Format encoding, so the
// equality relation is unchanged), hashes it with FNV-1a, and keeps the
// encodings of new rows back to back in one arena. Collisions fall back to
// comparing the stored encodings.

// appendRow encodes a row: formatted values separated by 0x1f.
func appendRow(buf []byte, r []sqldb.Value) []byte {
	for _, v := range r {
		buf = sqldb.AppendFormat(buf, v)
		buf = append(buf, 0x1f)
	}
	return buf
}

// fnv1a hashes b (FNV-1a 64).
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// rowSet is a hash set over row encodings numbering rows in insertion
// order: Add reports whether the encoded row was new. Its zero value is
// empty and ready; reset empties it for the next execution, keeping what
// it grew, so a set that lives in a Scratch allocates only while it grows
// past its largest earlier use.
type rowSet struct {
	heads   map[uint64]int // hash -> the newest entry with that hash
	hashes  []uint64       // hashes[j]: entry j's hash
	next    []int          // next[j]: the previous entry with j's hash, -1 at the end
	ends    []int          // entry j's encoding is arena[ends[j-1]:ends[j]]
	arena   []byte
	scratch []byte
}

// enc is entry j's stored encoding.
func (s *rowSet) enc(j int) []byte {
	from := 0
	if j > 0 {
		from = s.ends[j-1]
	}
	return s.arena[from:s.ends[j]]
}

// Add inserts the row's identity, reporting (index, true) for a new row and
// (existing index, false) for a duplicate.
func (s *rowSet) Add(r []sqldb.Value) (int, bool) {
	s.scratch = appendRow(s.scratch[:0], r)
	h := fnv1a(s.scratch)
	head, ok := s.heads[h]
	if !ok {
		head = -1
	}
	for j := head; j >= 0; j = s.next[j] {
		if bytes.Equal(s.enc(j), s.scratch) {
			return j, false
		}
	}
	if s.heads == nil {
		s.heads = make(map[uint64]int)
	}
	j := len(s.ends)
	s.heads[h] = j
	s.hashes = append(s.hashes, h)
	s.next = append(s.next, head)
	s.arena = append(s.arena, s.scratch...)
	s.ends = append(s.ends, len(s.arena))
	return j, true
}

// reset empties the set. It deletes only the hashes this use inserted, so
// its cost follows the rows the last execution saw, not the largest one
// the set ever held.
func (s *rowSet) reset() {
	for _, h := range s.hashes {
		delete(s.heads, h)
	}
	s.hashes, s.next, s.ends, s.arena = s.hashes[:0], s.next[:0], s.ends[:0], s.arena[:0]
}

// distinct removes duplicate rows preserving first occurrence, compacting
// rows in place, and leaves the set empty.
func (s *rowSet) distinct(rows [][]sqldb.Value) [][]sqldb.Value {
	out := rows[:0]
	for _, r := range rows {
		if _, fresh := s.Add(r); fresh {
			out = append(out, r)
		}
	}
	s.reset()
	return out
}
