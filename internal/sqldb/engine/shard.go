package engine

import (
	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/storage"
)

// NewSharded creates a database whose storage partitions every table
// across n shards (n <= 1 yields the plain single-store database). The
// SQL surface is unchanged: DDL fans out to every shard, DML routes by
// primary-key hash, and results are byte-identical to the unsharded
// database at any shard count.
func NewSharded(n int) *DB {
	store := storage.NewShardedStore(n)
	return &DB{store: store, plans: plan.NewCache(store)}
}

// StmtShardMask predicts which shards a statement touches for the given
// args, as a bitset over shard indexes; 0 means "all shards / unknown"
// (scans, joins, DDL, NULL keys). The prediction
// feeds the driver's per-shard occupancy model only — execution always
// routes through the storage layer regardless — so it is free to be
// approximate. The caller must hold the store's read or write lock (the
// plan cache requires it, same as ExecSelect).
func (db *DB) StmtShardMask(sql string, st sqlparse.Statement, args []sqldb.Value) uint64 {
	if db.store.NumShards() <= 1 {
		return 0
	}
	p := db.plans.Prepare(sql, st)
	if p.Err != nil {
		return 0
	}
	switch {
	case p.Select != nil:
		return p.Select.Shards(args)
	case p.Insert != nil:
		return p.Insert.Shards(args)
	case p.Update != nil:
		return p.Update.Access.Shards(args)
	case p.Delete != nil:
		return p.Delete.Access.Shards(args)
	}
	return 0
}
