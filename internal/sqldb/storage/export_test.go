package storage

// Epoch reports the committed epoch the snapshot pinned.
func (sn *Snap) Epoch() uint64 { return sn.epoch }

// PendingGC reports how many deferred cleanup records await sweeping
// (call under the store lock or with no writer active).
func (t *Table) PendingGC() int {
	n := len(t.garbage)
	for _, p := range t.parts {
		n += len(p.garbage)
	}
	return n
}

// Versions reports the length of id's version chain, 0 when the row has
// been fully reclaimed (same locking caveat as PendingGC).
func (t *Table) Versions(id RowID) int {
	n := 0
	for _, p := range t.parts {
		n += p.Versions(id)
	}
	for v := t.rows.get(id); v != nil; v = v.prev {
		n++
	}
	return n
}

// ActiveSnapshots reports how many snapshots are currently pinned. A
// cross-shard snapshot pins every shard once; report shard 0's count so
// the number still means "snapshots out".
func (s *Store) ActiveSnapshots() int {
	if s.shards != nil {
		return s.shards[0].ActiveSnapshots()
	}
	s.mv.snapMu.Lock()
	defer s.mv.snapMu.Unlock()
	n := 0
	for _, c := range s.mv.snaps {
		n += c
	}
	return n
}

// Shard exposes shard store i.
func (s *Store) Shard(i int) *Store { return s.shards[i] }
