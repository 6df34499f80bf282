package engine

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/sqldb/plan"
	"repro/internal/sqldb/storage"
)

// shardedDB builds a 4-shard database with a seeded kv table.
func shardedDB(t *testing.T) *DB {
	t.Helper()
	db := NewSharded(4)
	sess := db.NewSession()
	if _, err := sess.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 16; i++ {
		if _, err := sess.Exec("INSERT INTO kv (k, v) VALUES (?, ?)", int64(i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// maskOf predicts the shard mask for one statement under the store read
// lock, as the driver does.
func maskOf(t *testing.T, db *DB, sql string, args ...sqldb.Value) uint64 {
	t.Helper()
	st, err := plan.ParseCached(sql)
	if err != nil {
		t.Fatal(err)
	}
	db.Store().ReadLock()
	defer db.Store().ReadUnlock()
	return db.StmtShardMask(sql, st, args)
}

func TestShardMaskPointLookup(t *testing.T) {
	db := shardedDB(t)
	for i := 1; i <= 16; i++ {
		mask := maskOf(t, db, "SELECT * FROM kv WHERE k = ?", int64(i))
		want := uint64(1) << uint(storage.ShardOf(int64(i), 4))
		if mask != want {
			t.Errorf("k=%d: mask %b, want %b", i, mask, want)
		}
	}
}

// TestShardMaskFloatKey: a float key on the INT partition column is routed
// as the int64 it equals, as the storage lookup routes it, so the mask names
// the shard holding the row — whose canonical text ("1000000") is not the
// float's ("1e+06"). A float no INT equals routes nowhere: mask 0.
func TestShardMaskFloatKey(t *testing.T) {
	db := shardedDB(t)
	const k = 1_000_000
	if _, err := db.NewSession().Exec("INSERT INTO kv (k, v) VALUES (?, 'big')", int64(k)); err != nil {
		t.Fatal(err)
	}
	if storage.ShardOf(float64(k), 4) == storage.ShardOf(int64(k), 4) {
		t.Fatal("pick a key whose float and int spellings hash apart")
	}
	want := uint64(1) << uint(storage.ShardOf(int64(k), 4))
	if mask := maskOf(t, db, "SELECT * FROM kv WHERE k = ?", float64(k)); mask != want {
		t.Errorf("float key mask %b, want %b", mask, want)
	}
	rs, err := db.NewSession().Exec("SELECT v FROM kv WHERE k = ?", float64(k))
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("float key lookup: %v, %v", rs, err)
	}
	if mask := maskOf(t, db, "SELECT * FROM kv WHERE k = ?", k+0.5); mask != 0 {
		t.Errorf("non-integral key mask %b, want 0", mask)
	}
}

func TestShardMaskNullKeyMeansAllShards(t *testing.T) {
	db := shardedDB(t)
	if mask := maskOf(t, db, "SELECT * FROM kv WHERE k = ?", nil); mask != 0 {
		t.Errorf("NULL key mask %b, want 0 (all shards)", mask)
	}
}

func TestShardMaskInListSpansShards(t *testing.T) {
	db := shardedDB(t)
	// Find two keys on different shards so the union is visible.
	a := int64(1)
	b := int64(0)
	for i := int64(2); i <= 64; i++ {
		if storage.ShardOf(i, 4) != storage.ShardOf(a, 4) {
			b = i
			break
		}
	}
	if b == 0 {
		t.Fatal("no key found on a second shard")
	}
	mask := maskOf(t, db, "SELECT * FROM kv WHERE k IN (?, ?)", a, b)
	want := uint64(1)<<uint(storage.ShardOf(a, 4)) | uint64(1)<<uint(storage.ShardOf(b, 4))
	if mask != want {
		t.Errorf("IN mask %b, want %b", mask, want)
	}
	if bits.OnesCount64(mask) != 2 {
		t.Errorf("IN mask %b should cover exactly 2 shards", mask)
	}
}

func TestShardMaskScanAndNonKeyPredicate(t *testing.T) {
	db := shardedDB(t)
	if mask := maskOf(t, db, "SELECT * FROM kv"); mask != 0 {
		t.Errorf("scan mask %b, want 0", mask)
	}
	if mask := maskOf(t, db, "SELECT * FROM kv WHERE v = ?", "v3"); mask != 0 {
		t.Errorf("non-key predicate mask %b, want 0", mask)
	}
}

func TestShardMaskWrites(t *testing.T) {
	db := shardedDB(t)
	ins := maskOf(t, db, "INSERT INTO kv (k, v) VALUES (?, ?)", int64(99), "x")
	if want := uint64(1) << uint(storage.ShardOf(int64(99), 4)); ins != want {
		t.Errorf("insert mask %b, want %b", ins, want)
	}
	upd := maskOf(t, db, "UPDATE kv SET v = ? WHERE k = ?", "y", int64(5))
	if want := uint64(1) << uint(storage.ShardOf(int64(5), 4)); upd != want {
		t.Errorf("update mask %b, want %b", upd, want)
	}
	del := maskOf(t, db, "DELETE FROM kv WHERE k = ?", int64(6))
	if want := uint64(1) << uint(storage.ShardOf(int64(6), 4)); del != want {
		t.Errorf("delete mask %b, want %b", del, want)
	}
}

func TestShardMaskUnshardedAlwaysZero(t *testing.T) {
	db := New()
	sess := db.NewSession()
	if _, err := sess.Exec("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	if mask := maskOf(t, db, "SELECT * FROM kv WHERE k = ?", int64(1)); mask != 0 {
		t.Errorf("unsharded mask %b, want 0", mask)
	}
}

// TestShardRouter: Table.ShardBy routes a key of the partition column to
// the shard holding it, mapped onto the column's type; anything else
// (another column, NULL, a key no row can equal, an unsharded table) does
// not route.
func TestShardRouter(t *testing.T) {
	kv, ok := shardedDB(t).Store().Table("kv")
	if !ok {
		t.Fatal("no kv table")
	}
	want := storage.ShardOf(int64(7), 4)
	for _, key := range []sqldb.Value{int64(7), 7, 7.0} {
		if sh, ok := kv.ShardBy(0, key); !ok || sh != want {
			t.Errorf("ShardBy(k, %#v) = %d, %v; want %d", key, sh, ok, want)
		}
	}
	for _, tc := range []struct {
		ord int
		key sqldb.Value
	}{{1, "x"}, {0, nil}, {0, 7.5}} {
		if _, ok := kv.ShardBy(tc.ord, tc.key); ok {
			t.Errorf("ShardBy(%d, %#v) routed", tc.ord, tc.key)
		}
	}
	db := New()
	if _, err := db.NewSession().Exec("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)"); err != nil {
		t.Fatal(err)
	}
	plain, _ := db.Store().Table("kv")
	if _, ok := plain.ShardBy(0, int64(7)); ok {
		t.Error("an unsharded table routed a key")
	}
}

// TestShardDDLThroughEngine: DDL issued through a session fans out to
// every shard — a subsequent keyed query on any shard's rows succeeds and
// the schema epoch is bumped exactly once per DDL.
func TestShardDDLThroughEngine(t *testing.T) {
	db := shardedDB(t)
	before := db.Store().Epoch()
	if _, err := db.NewSession().Exec("CREATE TABLE t2 (id INT PRIMARY KEY, n INT)"); err != nil {
		t.Fatal(err)
	}
	if got := db.Store().Epoch(); got != before+1 {
		t.Errorf("schema epoch %d, want %d", got, before+1)
	}
	sess := db.NewSession()
	for i := 1; i <= 8; i++ {
		if _, err := sess.Exec("INSERT INTO t2 (id, n) VALUES (?, ?)", int64(i), int64(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 8; i++ {
		rs, err := sess.Exec("SELECT n FROM t2 WHERE id = ?", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		if len(rs.Rows) != 1 {
			t.Fatalf("id=%d: got %d rows", i, len(rs.Rows))
		}
	}
}
