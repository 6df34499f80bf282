package driver

import (
	"fmt"
	"hash/maphash"
	"math"

	"repro/internal/sqldb"
)

// Statement identity. Two statements are the same query — safe to execute
// once and answer both callers from one result, which is only sound when
// they denote the same bag of rows — iff they have the same SQL text and
// pairwise equal arguments OF THE SAME TYPE after sqldb.Normalize: int64(5)
// and "5", NULL and "~", 1.0 and int64(1) are different queries, while the
// int / int32 / int64 spellings of one value are the same. This file is the
// one definition; the query store's within-batch dedup and the shared
// window's cross-session coalescing both go through StmtIndex. Parsed never
// takes part.

// argID is one argument's identity: its type after Normalize ('n'ull,
// 'i'nt, 'f'loat, 'b'ool, 's'tring, 'o'ther) and its value, in bits or text.
type argID struct {
	kind byte
	bits uint64
	text string
}

// argOf reduces an argument to its identity without allocating for the
// canonical types. Floats compare by bit pattern (NaN equals itself, +0 and
// -0 differ); a dynamic type Normalize does not know compares by type name
// and sqldb.Format text, never by a == that could panic.
func argOf(v sqldb.Value) argID {
	for normalized := false; ; normalized = true {
		switch x := v.(type) {
		case nil:
			return argID{kind: 'n'}
		case int64:
			return argID{kind: 'i', bits: uint64(x)}
		case float64:
			return argID{kind: 'f', bits: math.Float64bits(x)}
		case bool:
			if x {
				return argID{kind: 'b', bits: 1}
			}
			return argID{kind: 'b'}
		case string:
			return argID{kind: 's', text: x}
		}
		if normalized {
			return argID{kind: 'o', text: fmt.Sprintf("%T:", v) + sqldb.Format(v)}
		}
		v = sqldb.Normalize(v)
	}
}

// stmtSeed keys Hash for this process. Equal, not the hash, decides
// identity, so results never depend on it.
var stmtSeed = maphash.MakeSeed()

// Hash is consistent with Equal and does not allocate.
func (st Stmt) Hash() uint64 {
	h := maphash.String(stmtSeed, st.SQL)
	for _, a := range st.Args {
		id := argOf(a)
		if id.text != "" {
			id.bits = maphash.String(stmtSeed, id.text)
		}
		h = (h ^ id.bits ^ uint64(id.kind)<<56) * 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h
}

// Equal reports whether st and o are the same query (see above).
func (st Stmt) Equal(o Stmt) bool {
	if st.SQL != o.SQL || len(st.Args) != len(o.Args) {
		return false
	}
	for i, a := range st.Args {
		if argOf(a) != argOf(o.Args[i]) {
			return false
		}
	}
	return true
}

// StmtIndex finds, among the statements of a growing slice, the one
// identical to a probe. It holds (hash, position) pairs only — the caller
// owns the slice — in an open-addressed table that Reset empties without
// releasing, so a long-lived owner indexes batch after batch with no
// allocation. The zero value is ready to use.
type StmtIndex struct {
	slots []indexSlot // len is zero or a power of two; at most half full
	n     int
}

// indexSlot is one table entry: pos is the statement's position plus one
// (zero marks an empty slot), hash the high half of its Hash.
type indexSlot struct {
	hash uint32
	pos  int32
}

// Add looks st up among the indexed statements of stmts and returns the
// position of the identical one. If there is none, Add indexes st at
// position len(stmts) — where the caller appends it — and reports that.
func (x *StmtIndex) Add(stmts []Stmt, st Stmt) (pos int, dup bool) {
	return x.add(stmts, st, uint32(st.Hash()>>32))
}

// add probes under a given hash; Equal decides, so any hash — even one
// shared by every statement — yields the same answer.
func (x *StmtIndex) add(stmts []Stmt, st Stmt, hash uint32) (int, bool) {
	if 2*(x.n+1) > len(x.slots) {
		old := x.slots
		x.slots = make([]indexSlot, max(16, 2*len(old)))
		for _, s := range old {
			if s.pos != 0 {
				x.slots[x.free(s.hash)] = s
			}
		}
	}
	mask := uint32(len(x.slots) - 1)
	i := hash & mask
	for ; x.slots[i].pos != 0; i = (i + 1) & mask {
		if s := x.slots[i]; s.hash == hash && stmts[s.pos-1].Equal(st) {
			return int(s.pos - 1), true
		}
	}
	x.slots[i] = indexSlot{hash: hash, pos: int32(len(stmts) + 1)}
	x.n++
	return len(stmts), false
}

// free returns the first empty slot on hash's probe sequence.
func (x *StmtIndex) free(hash uint32) uint32 {
	mask := uint32(len(x.slots) - 1)
	i := hash & mask
	for x.slots[i].pos != 0 {
		i = (i + 1) & mask
	}
	return i
}

// Reset forgets every entry and keeps the table.
func (x *StmtIndex) Reset() {
	if x.n > 0 {
		clear(x.slots)
		x.n = 0
	}
}
