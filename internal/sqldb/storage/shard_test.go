package storage

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/sqldb"
)

// These tests pin the sharded-store contract: routing views behave
// byte-identically to a single store (same row streams, same error
// strings), rows land on the shard their key hashes to, and cross-shard
// statements publish atomically.

func shardedStore(t *testing.T, n int) (*Store, *Table) {
	t.Helper()
	s := NewShardedStore(n)
	tbl, err := s.CreateTable("kv", []Column{
		{Name: "k", Type: sqldb.TypeInt, PrimaryKey: true},
		{Name: "v", Type: sqldb.TypeText},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

func collectScan(t *testing.T, tbl *Table, snap *Snap) []Row {
	t.Helper()
	var rows []Row
	if err := tbl.ScanEach(snap, func(r Row) error {
		rows = append(rows, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestShardedStoreDegeneratesToPlain(t *testing.T) {
	s := NewShardedStore(1)
	if s.NumShards() != 1 {
		t.Fatalf("NumShards() = %d, want 1", s.NumShards())
	}
	if s.shards != nil {
		t.Fatal("1-shard store should be a plain store")
	}
}

func TestShardInsertRoutesByKeyHash(t *testing.T) {
	s, tbl := shardedStore(t, 4)
	for i := int64(1); i <= 64; i++ {
		if _, err := insertRow(tbl, Row{i, fmt.Sprintf("v%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for i := 0; i < 4; i++ {
		part, ok := s.Shard(i).Table("kv")
		if !ok {
			t.Fatalf("shard %d missing part table", i)
		}
		total += part.NumRows()
		// Every row on this part must hash here.
		part.Scan(func(_ RowID, r Row) bool {
			if got := ShardOf(r[0], 4); got != i {
				t.Errorf("row k=%v on shard %d, hashes to %d", r[0], i, got)
			}
			return true
		})
	}
	if total != 64 {
		t.Fatalf("rows across shards = %d, want 64", total)
	}
	if tbl.NumRows() != 64 {
		t.Fatalf("view NumRows() = %d, want 64", tbl.NumRows())
	}
}

// TestShardScanMatchesSingleStore is the golden-identity core: the same
// mutation sequence against 1 and 4 shards must yield the same scan
// stream, lookup results, and ids.
func TestShardScanMatchesSingleStore(t *testing.T) {
	build := func(n int) *Table {
		var s *Store
		if n == 1 {
			s = NewStore()
		} else {
			s = NewShardedStore(n)
		}
		tbl, err := s.CreateTable("kv", []Column{
			{Name: "k", Type: sqldb.TypeInt, PrimaryKey: true},
			{Name: "v", Type: sqldb.TypeText},
		})
		if err != nil {
			t.Fatal(err)
		}
		var ids []RowID
		for i := int64(1); i <= 40; i++ {
			id, err := insertRow(tbl, Row{i, fmt.Sprintf("v%d", i)})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i := 0; i < 40; i += 3 {
			if _, err := updateRow(tbl, ids[i], Row{int64(i + 1), "upd"}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < 40; i += 7 {
			if _, ok := deleteRow(tbl, ids[i]); !ok {
				t.Fatalf("delete id %d failed", ids[i])
			}
		}
		return tbl
	}
	single, sharded := build(1), build(4)

	one := collectScan(t, single, nil)
	four := collectScan(t, sharded, nil)
	if len(one) != len(four) {
		t.Fatalf("scan lengths differ: %d vs %d", len(one), len(four))
	}
	for i := range one {
		if sqldb.Format(one[i][0]) != sqldb.Format(four[i][0]) || sqldb.Format(one[i][1]) != sqldb.Format(four[i][1]) {
			t.Fatalf("scan row %d differs: %v vs %v", i, one[i], four[i])
		}
	}
	// Point lookups agree too.
	for k := int64(1); k <= 40; k++ {
		a, b := single.Lookup(0, k), sharded.Lookup(0, k)
		if len(a) != len(b) {
			t.Fatalf("Lookup(%d) lengths differ: %v vs %v", k, a, b)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Lookup(%d) ids differ: %v vs %v", k, a, b)
			}
		}
	}
}

func TestShardUniqueEnforcedAcrossShards(t *testing.T) {
	_, tbl := shardedStore(t, 4)
	if _, err := insertRow(tbl, Row{int64(7), "a"}); err != nil {
		t.Fatal(err)
	}
	_, err := insertRow(tbl, Row{int64(7), "b"})
	if err == nil {
		t.Fatal("duplicate pk across sharded table not rejected")
	}
	want := `storage: table "kv": duplicate key 7 for column "k"`
	if err.Error() != want {
		t.Fatalf("error = %q, want %q", err, want)
	}
}

func TestShardAddIndexDupErrorParity(t *testing.T) {
	// The duplicate named by a failed unique-index build must be the
	// lowest-global-id duplicate, exactly as a single store reports it.
	build := func(n int) *Table {
		var s *Store
		if n == 1 {
			s = NewStore()
		} else {
			s = NewShardedStore(n)
		}
		tbl, err := s.CreateTable("kv", []Column{
			{Name: "k", Type: sqldb.TypeInt, PrimaryKey: true},
			{Name: "v", Type: sqldb.TypeText},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 10; i++ {
			if _, err := insertRow(tbl, Row{i, fmt.Sprintf("dup%d", i%3)}); err != nil {
				t.Fatal(err)
			}
		}
		return tbl
	}
	e1 := build(1).AddIndex("v", true)
	e4 := build(4).AddIndex("v", true)
	if e1 == nil || e4 == nil {
		t.Fatal("expected unique violation from both stores")
	}
	if e1.Error() != e4.Error() {
		t.Fatalf("error parity broken:\n 1 shard: %v\n 4 shards: %v", e1, e4)
	}
}

func TestShardDDLEpochReachesEveryShard(t *testing.T) {
	s, tbl := shardedStore(t, 4)
	before := make([]uint64, 4)
	for i := range before {
		before[i] = s.Shard(i).Epoch()
	}
	coordBefore := s.Epoch()
	if err := tbl.AddIndex("v", false); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		if got := s.Shard(i).Epoch(); got <= before[i] {
			t.Errorf("shard %d epoch %d not bumped (was %d)", i, got, before[i])
		}
		part, _ := s.Shard(i).Table("kv")
		if ord, ok := part.ColOrdinal("v"); !ok || !part.HasIndex(ord) {
			t.Errorf("shard %d part missing index on v", i)
		}
	}
	if s.Epoch() <= coordBefore {
		t.Error("coordinator schema epoch not bumped")
	}
}

func TestShardNilPKRoutesById(t *testing.T) {
	s := NewShardedStore(4)
	tbl, err := s.CreateTable("log", []Column{
		{Name: "msg", Type: sqldb.TypeText},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := insertRow(tbl, Row{fmt.Sprintf("m%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Rows spread round-robin by id; the scan still streams insertion order.
	rows := collectScan(t, tbl, nil)
	if len(rows) != 16 {
		t.Fatalf("scanned %d rows, want 16", len(rows))
	}
	for i, r := range rows {
		if r[0] != fmt.Sprintf("m%d", i) {
			t.Fatalf("row %d = %v, want m%d", i, r[0], i)
		}
	}
	spread := 0
	for i := 0; i < 4; i++ {
		part, _ := s.Shard(i).Table("log")
		if part.NumRows() > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Fatalf("rows landed on %d shards, want spread", spread)
	}
}

func TestShardNullKeyRowReachableByScan(t *testing.T) {
	_, tbl := shardedStore(t, 4)
	// A NULL partition key routes by id and is only reachable by scan
	// (NULLs are not indexed) — on any shard count.
	if _, err := insertRow(tbl, Row{nil, "nullkey"}); err != nil {
		t.Fatal(err)
	}
	if _, err := insertRow(tbl, Row{int64(1), "keyed"}); err != nil {
		t.Fatal(err)
	}
	rows := collectScan(t, tbl, nil)
	if len(rows) != 2 || rows[0][1] != "nullkey" {
		t.Fatalf("scan = %v, want nullkey first", rows)
	}
	if ids := tbl.Lookup(0, nil); len(ids) != 0 {
		t.Fatalf("Lookup(nil) = %v, want empty (NULLs unindexed)", ids)
	}
}

func TestShardUpdateMovesRowAcrossShards(t *testing.T) {
	s, tbl := shardedStore(t, 4)
	// Find two keys that hash to different shards.
	k1 := int64(1)
	src := ShardOf(k1, 4)
	var k2 int64
	for k2 = 2; ShardOf(k2, 4) == src; k2++ {
	}
	dst := ShardOf(k2, 4)

	id, err := insertRow(tbl, Row{k1, "here"})
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	defer snap.Release()

	if _, err := updateRow(tbl, id, Row{k2, "there"}); err != nil {
		t.Fatal(err)
	}
	srcPart, _ := s.Shard(src).Table("kv")
	dstPart, _ := s.Shard(dst).Table("kv")
	if srcPart.NumRows() != 0 || dstPart.NumRows() != 1 {
		t.Fatalf("row not moved: src=%d dst=%d live rows", srcPart.NumRows(), dstPart.NumRows())
	}
	// Latest view sees the new image under the same id.
	if r, ok := tbl.RowAt(id, nil); !ok || r[1] != "there" {
		t.Fatalf("Get(%d) = %v, want there", id, r)
	}
	// The pre-move snapshot still sees the old image exactly once.
	rows := collectScan(t, tbl, snap)
	if len(rows) != 1 || rows[0][1] != "here" {
		t.Fatalf("snapshot scan = %v, want single old image", rows)
	}
	if r, ok := tbl.RowAt(id, snap); !ok || r[1] != "here" {
		t.Fatalf("RowAt via snapshot = %v, want here", r)
	}
}

func TestShardCrossShardMovePublishesAtomically(t *testing.T) {
	s, tbl := shardedStore(t, 4)
	k1 := int64(1)
	var k2 int64
	for k2 = 2; ShardOf(k2, 4) == ShardOf(k1, 4); k2++ {
	}
	id, err := insertRow(tbl, Row{k1, "x"})
	if err != nil {
		t.Fatal(err)
	}
	// Inside its Write the move must not be visible — on either shard — to
	// a snapshot taken mid-statement: snapshots gate on publication, so
	// mid-Write acquisition sees the pre-move state on both shards.
	var mid *Snap
	s.Lock()
	err = s.Write(func(w *Writer) error {
		_, err := w.Update(tbl, id, Row{k2, "x"})
		mid = s.Snapshot()
		return err
	})
	s.Unlock()
	defer mid.Release()
	if err != nil {
		t.Fatal(err)
	}

	rows := collectScan(t, tbl, mid)
	if len(rows) != 1 {
		t.Fatalf("mid-statement snapshot sees %d images, want exactly 1 (atomic move)", len(rows))
	}
	if rows[0][0] != k1 {
		t.Fatalf("mid-statement snapshot sees moved key %v, want %v", rows[0][0], k1)
	}
	after := s.Snapshot()
	defer after.Release()
	rows = collectScan(t, tbl, after)
	if len(rows) != 1 || rows[0][0] != k2 {
		t.Fatalf("post-publish snapshot = %v, want moved row", rows)
	}
}

// TestShardMoveBackRestoresSourceShard: a row moved cross-shard and then
// moved back supersedes its image on the destination and lands on the
// source shard again, over the dead chain it left there: one live image,
// on the source.
func TestShardMoveBackRestoresSourceShard(t *testing.T) {
	s, tbl := shardedStore(t, 4)
	k1 := int64(1)
	var k2 int64
	for k2 = 2; ShardOf(k2, 4) == ShardOf(k1, 4); k2++ {
	}
	id, err := insertRow(tbl, Row{k1, "orig"})
	if err != nil {
		t.Fatal(err)
	}
	pin := s.Snapshot() // keeps the source's dead chain from being swept
	defer pin.Release()
	for _, row := range []Row{{k2, "moved"}, {k1, "back"}} {
		if _, err := updateRow(tbl, id, row); err != nil {
			t.Fatal(err)
		}
	}

	if r, ok := tbl.RowAt(id, nil); !ok || r[0] != k1 || r[1] != "back" {
		t.Fatalf("after the move back RowAt = %v, want the source key's row", r)
	}
	srcPart, _ := s.Shard(ShardOf(k1, 4)).Table("kv")
	dstPart, _ := s.Shard(ShardOf(k2, 4)).Table("kv")
	if srcPart.NumRows() != 1 || dstPart.NumRows() != 0 {
		t.Fatalf("move back left src=%d dst=%d live rows", srcPart.NumRows(), dstPart.NumRows())
	}
	if rows := collectScan(t, tbl, nil); len(rows) != 1 {
		t.Fatalf("move back left %d live images", len(rows))
	}
	if rows := collectScan(t, tbl, pin); len(rows) != 1 || rows[0][1] != "orig" {
		t.Fatalf("snapshot pinned before the moves scans %v, want the original row", rows)
	}
}

func TestShardLookupEachNonPartitionColumnFansOut(t *testing.T) {
	_, tbl := shardedStore(t, 4)
	if err := tbl.AddIndex("v", false); err != nil {
		t.Fatal(err)
	}
	var want []RowID
	for i := int64(1); i <= 20; i++ {
		val := "odd"
		if i%2 == 0 {
			val = "even"
		}
		id, err := insertRow(tbl, Row{i, val})
		if err != nil {
			t.Fatal(err)
		}
		if val == "even" {
			want = append(want, id)
		}
	}
	ord, _ := tbl.ColOrdinal("v")
	var got []int64
	if err := tbl.LookupEach(ord, "even", nil, func(r Row) error {
		got = append(got, r[0].(int64))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fan-out lookup returned %d rows, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("fan-out lookup out of id order: %v", got)
		}
	}
}

func TestShardInsertErrorParity(t *testing.T) {
	_, tbl := shardedStore(t, 4)
	_, err := insertRow(tbl, Row{int64(1)})
	if err == nil || !strings.Contains(err.Error(), "got 1 values, want 2") {
		t.Fatalf("arity error = %v", err)
	}
	_, err = insertRow(tbl, Row{"notanint", "x"})
	if err == nil || !strings.Contains(err.Error(), `column "k"`) {
		t.Fatalf("coerce error = %v", err)
	}
}

// TestUpdateErrorParity: Update passes the same admission check as Insert,
// at any shard count — a short or a long row is an arity error, not an
// index-out-of-range panic.
func TestUpdateErrorParity(t *testing.T) {
	for _, shards := range []int{1, 2} {
		_, tbl := shardedStore(t, shards)
		id, err := insertRow(tbl, Row{int64(1), "a"})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			vals Row
			want string
		}{
			{Row{int64(1)}, `storage: table "kv": got 1 values, want 2`},
			{Row{int64(1), "a", "extra"}, `storage: table "kv": got 3 values, want 2`},
			{Row{"notanint", "x"}, `storage: table "kv" column "k": `},
		} {
			_, err := updateRow(tbl, id, tc.vals)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Errorf("%d shards: Update(%v) error = %v, want %q", shards, tc.vals, err, tc.want)
			}
		}
		if r, ok := tbl.RowAt(id, nil); !ok || r[1] != "a" {
			t.Errorf("%d shards: rejected updates changed the row: %v", shards, r)
		}
	}
}

func TestShardOfStability(t *testing.T) {
	// The partition function is part of the on-disk-equivalent contract:
	// plan router, merge splitter, and storage must always agree, and a
	// value must hash identically however it is spelled.
	if ShardOf(int64(7), 4) != ShardOf(int(7), 4) {
		t.Error("int and int64 spellings of 7 hash differently")
	}
	if ShardOf("x", 1) != 0 {
		t.Error("single shard must always be 0")
	}
	for n := 2; n <= 8; n *= 2 {
		seen := make(map[int]bool)
		for i := int64(0); i < 256; i++ {
			sh := ShardOf(i, n)
			if sh < 0 || sh >= n {
				t.Fatalf("ShardOf out of range: %d for n=%d", sh, n)
			}
			seen[sh] = true
		}
		if len(seen) != n {
			t.Errorf("256 keys over %d shards hit only %d shards", n, len(seen))
		}
	}
	// Placement is frozen: these were captured from the hash/fnv +
	// sqldb.Format implementation the inline FNV-1a replaced.
	for _, tc := range []struct {
		v           sqldb.Value
		n2, n4, n64 int
	}{
		{int64(0), 1, 3, 47}, {int64(7), 0, 2, 54}, {int64(-7), 1, 1, 29},
		{int64(math.MinInt64), 1, 1, 25}, {int64(1) << 40, 0, 0, 20},
		{"", 1, 1, 5}, {"x", 1, 3, 31}, {"it's", 0, 0, 48}, {`say "hi"`, 1, 3, 11},
		{"tab\there", 0, 0, 8}, {"naïve", 1, 3, 11}, {"日本語", 1, 3, 63}, {"\x00\xff", 1, 1, 53},
		{strings.Repeat("kéy", 40), 1, 1, 5}, // longer than ShardOf's stack buffer
		{1.5, 1, 1, 57}, {-0.25, 1, 3, 63}, {1e21, 1, 1, 53}, {3.0, 0, 2, 2},
		{true, 1, 1, 37}, {false, 0, 0, 56}, {nil, 0, 0, 36},
		{int32(7), 0, 2, 54}, {float32(1.5), 1, 1, 57},
	} {
		if g2, g4, g64 := ShardOf(tc.v, 2), ShardOf(tc.v, 4), ShardOf(tc.v, 64); g2 != tc.n2 || g4 != tc.n4 || g64 != tc.n64 {
			t.Errorf("ShardOf(%#v) over 2/4/64 shards = %d/%d/%d, want %d/%d/%d", tc.v, g2, g4, g64, tc.n2, tc.n4, tc.n64)
		}
	}
}
