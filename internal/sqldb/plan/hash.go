package plan

import (
	"bytes"

	"repro/internal/sqldb"
)

// Row identity for DISTINCT and GROUP BY used to be a '\x1f'-joined
// sqldb.Format string per row — one string allocation per row plus the
// formatting garbage. The hash path below encodes each row into a reusable
// scratch buffer (byte-identical to the old Format encoding, so the
// equality relation is unchanged), hashes it with FNV-1a, and only keeps a
// copy of the encoding for rows that start a new bucket entry. Collisions
// fall back to comparing the stored encodings.

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

// rowSet is a hash set over row encodings preserving insertion order
// semantics: Add reports whether the encoded row was new.
type rowSet struct {
	buckets map[uint64][]int
	encs    [][]byte
	scratch []byte
}

func newRowSet(sizeHint int) *rowSet {
	return &rowSet{buckets: make(map[uint64][]int, sizeHint), scratch: make([]byte, 0, 64)}
}

// Add inserts the row's identity, reporting (index, true) for a new row and
// (existing index, false) for a duplicate.
func (s *rowSet) Add(r []sqldb.Value) (int, bool) {
	s.scratch = appendRow(s.scratch[:0], r)
	h := fnv1a(s.scratch)
	for _, j := range s.buckets[h] {
		if bytes.Equal(s.encs[j], s.scratch) {
			return j, false
		}
	}
	j := len(s.encs)
	s.encs = append(s.encs, append([]byte(nil), s.scratch...))
	s.buckets[h] = append(s.buckets[h], j)
	return j, true
}

// distinctRows removes duplicate rows preserving first occurrence.
func distinctRows(rows [][]sqldb.Value) [][]sqldb.Value {
	set := newRowSet(len(rows))
	out := rows[:0:0]
	for _, r := range rows {
		if _, fresh := set.Add(r); fresh {
			out = append(out, r)
		}
	}
	return out
}
