package plan

import (
	"slices"

	"repro/internal/sqldb"
	"repro/internal/sqldb/storage"
)

// Shard routing: compiled plans already know their access path (the
// accessCand index candidates pick chooses among), so they can predict
// which shards an execution will touch before it runs. The driver
// uses these masks to occupy only the owning shards' worker lanes; they
// are advisory — execution always routes correctly through the storage
// view regardless — so an approximate mask (0 = "all shards / unknown")
// costs accuracy in the occupancy model, never correctness.
//
// A mask is a uint64 bitset over shard indexes (storage.MaxShards caps the
// shard count at 64). Mask 0 means "touches every shard": scans, joins,
// non-partition-column lookups, NULL-valued keys, and statements against
// unsharded stores all report 0.

// shardMaskOf folds the lookup values of the access path pick chooses — the
// one the executor will use — into a mask, each routed as the storage
// lookup routes it (Table.ShardBy). Returns 0 unless that path's column IS
// the table's partition column and every value routes (a NULL key, say,
// makes storage fall back to an all-shard scan).
func shardMaskOf(t *storage.Table, cands []accessCand, args []sqldb.Value) uint64 {
	var key [1]sqldb.Value
	c, vals := pick(cands, args, key[:0])
	if c == nil {
		return 0
	}
	var mask uint64
	for _, v := range vals {
		sh, ok := t.ShardBy(c.ord, v)
		if !ok {
			return 0
		}
		mask |= 1 << uint(sh)
	}
	return mask
}

// Shards predicts the shard set this SELECT touches for the given args.
// Joins fan out to every shard their side tables live on, so any join
// reports 0 (all shards).
func (p *SelectPlan) Shards(args []sqldb.Value) uint64 {
	if len(p.joins) > 0 {
		return 0
	}
	return shardMaskOf(p.from, p.access, args)
}

// Shards predicts the shard set an UPDATE/DELETE row-match touches. The
// write itself lands on the matched rows' shards (a superset only when the
// WHERE filter rejects some), so the access mask is the honest estimate.
func (a *TableAccess) Shards(args []sqldb.Value) uint64 {
	return shardMaskOf(a.t, a.access, args)
}

// Shards predicts the shard set an INSERT touches: the union of the shards
// owning each row's partition-key value. Rows that omit the key, or whose
// key expression errors or is NULL, spread by id — unpredictable here, so
// the whole statement degrades to 0.
func (p *InsertPlan) Shards(args []sqldb.Value) uint64 {
	pOrd := p.T.PKOrdinal() // a view's partition column
	keyPos := slices.Index(p.Ordinals, pOrd)
	if pOrd < 0 || keyPos < 0 {
		return 0
	}
	var mask uint64
	for _, fns := range p.RowFns {
		if keyPos >= len(fns) {
			return 0
		}
		v, err := fns[keyPos](nil, args)
		if err != nil || v == nil {
			return 0
		}
		cv, err := sqldb.Coerce(sqldb.Normalize(v), p.T.Columns[pOrd].Type)
		if err != nil {
			return 0
		}
		sh, ok := p.T.ShardBy(pOrd, cv)
		if !ok {
			return 0
		}
		mask |= 1 << uint(sh)
	}
	return mask
}
