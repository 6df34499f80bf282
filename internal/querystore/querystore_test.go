package querystore

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/netsim"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
)

// rig wires a store to a fresh database with a seeded table.
func rig(t *testing.T, cfg Config) (*Store, *netsim.Link) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	db := engine.New()
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	link := netsim.NewLink(clock, time.Millisecond)
	conn := srv.Connect(link)
	for _, sql := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT)",
		"INSERT INTO items (id, name, qty) VALUES (1, 'apple', 5), (2, 'pear', 7), (3, 'fig', 2)",
	} {
		if _, err := conn.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	link.ResetStats()
	return New(conn, cfg), link
}

func TestRegisterDefersExecution(t *testing.T) {
	s, link := rig(t, Config{})
	id, err := s.Register("SELECT * FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if link.Stats().RoundTrips != 0 {
		t.Fatal("Register executed the query eagerly")
	}
	if s.PendingLen() != 1 {
		t.Fatalf("pending = %d, want 1", s.PendingLen())
	}
	rs, err := s.ResultSet(id)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][1] != "apple" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if link.Stats().RoundTrips != 1 {
		t.Fatalf("round trips = %d, want 1", link.Stats().RoundTrips)
	}
}

func TestBatchManyQueriesOneRoundTrip(t *testing.T) {
	s, link := rig(t, Config{})
	var ids []QueryID
	for i := 1; i <= 3; i++ {
		id, err := s.Register("SELECT name FROM items WHERE id = ?", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Forcing ANY id flushes the whole batch.
	if _, err := s.ResultSet(ids[2]); err != nil {
		t.Fatal(err)
	}
	if link.Stats().RoundTrips != 1 {
		t.Fatalf("round trips = %d, want 1", link.Stats().RoundTrips)
	}
	// The sibling results are now cached: no further round trips.
	for _, id := range ids {
		if _, err := s.ResultSet(id); err != nil {
			t.Fatal(err)
		}
	}
	if link.Stats().RoundTrips != 1 {
		t.Fatalf("round trips after cached reads = %d, want 1", link.Stats().RoundTrips)
	}
	st := s.Stats()
	if st.Batches != 1 || st.MaxBatch != 3 || st.Executed != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDedupWithinBatch(t *testing.T) {
	s, _ := rig(t, Config{})
	id1, _ := s.Register("SELECT * FROM items WHERE id = ?", int64(1))
	id2, _ := s.Register("SELECT * FROM items WHERE id = ?", int64(1))
	if id1 != id2 {
		t.Fatalf("duplicate registration got new id: %d vs %d", id1, id2)
	}
	if s.Stats().DedupHits != 1 {
		t.Fatalf("dedup hits = %d", s.Stats().DedupHits)
	}
	// Different args are different queries.
	id3, _ := s.Register("SELECT * FROM items WHERE id = ?", int64(2))
	if id3 == id1 {
		t.Fatal("different args deduped")
	}
	if s.PendingLen() != 2 {
		t.Fatalf("pending = %d, want 2", s.PendingLen())
	}
}

func TestDedupDisabled(t *testing.T) {
	s, _ := rig(t, Config{DisableDedup: true})
	id1, _ := s.Register("SELECT * FROM items WHERE id = 1")
	id2, _ := s.Register("SELECT * FROM items WHERE id = 1")
	if id1 == id2 {
		t.Fatal("dedup happened despite DisableDedup")
	}
	if s.PendingLen() != 2 {
		t.Fatalf("pending = %d, want 2", s.PendingLen())
	}
}

func TestWriteFlushesBatchImmediately(t *testing.T) {
	s, link := rig(t, Config{})
	rid, _ := s.Register("SELECT name FROM items WHERE id = 1")
	wid, err := s.Register("UPDATE items SET qty = 99 WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	// The write forces everything out in ONE round trip.
	if got := link.Stats().RoundTrips; got != 1 {
		t.Fatalf("round trips = %d, want 1", got)
	}
	if s.PendingLen() != 0 {
		t.Fatal("queue not drained by write")
	}
	if s.Stats().ForcedByWrite != 1 {
		t.Fatalf("ForcedByWrite = %d", s.Stats().ForcedByWrite)
	}
	// Both results are available without further trips.
	wrs, err := s.ResultSet(wid)
	if err != nil || wrs.RowsAffected != 1 {
		t.Fatalf("write result = %+v, %v", wrs, err)
	}
	rrs, err := s.ResultSet(rid)
	if err != nil || rrs.Rows[0][0] != "apple" {
		t.Fatalf("read result = %+v, %v", rrs, err)
	}
	if link.Stats().RoundTrips != 1 {
		t.Fatal("extra round trips for cached results")
	}
}

func TestOrderPreservedReadBeforeWrite(t *testing.T) {
	// A read registered before a write must observe pre-write data.
	s, _ := rig(t, Config{})
	rid, _ := s.Register("SELECT qty FROM items WHERE id = 1")
	s.Register("UPDATE items SET qty = 1000 WHERE id = 1")
	rs, err := s.ResultSet(rid)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0] != int64(5) {
		t.Fatalf("read saw qty = %v, want pre-write 5", rs.Rows[0][0])
	}
	// A later read observes the write.
	rs2, err := s.Exec("SELECT qty FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Rows[0][0] != int64(1000) {
		t.Fatalf("post-write read = %v", rs2.Rows[0][0])
	}
}

func TestTransactionBoundariesFlush(t *testing.T) {
	s, link := rig(t, Config{})
	s.Register("SELECT * FROM items WHERE id = 1")
	if _, err := s.Register("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if link.Stats().RoundTrips != 1 {
		t.Fatalf("BEGIN did not flush: %d trips", link.Stats().RoundTrips)
	}
	s.Register("UPDATE items SET qty = 0 WHERE id = 2")
	if _, err := s.Register("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	rs, _ := s.Exec("SELECT qty FROM items WHERE id = 2")
	if rs.Rows[0][0] != int64(7) {
		t.Fatalf("rollback through store failed: qty = %v", rs.Rows[0][0])
	}
}

func TestBatchCapTriggersFlush(t *testing.T) {
	s, link := rig(t, Config{BatchCap: 2})
	s.Register("SELECT * FROM items WHERE id = 1")
	if link.Stats().RoundTrips != 0 {
		t.Fatal("flushed before cap")
	}
	s.Register("SELECT * FROM items WHERE id = 2")
	if link.Stats().RoundTrips != 1 {
		t.Fatalf("cap did not flush: %d trips", link.Stats().RoundTrips)
	}
	if s.PendingLen() != 0 {
		t.Fatal("queue not drained at cap")
	}
}

func TestResultSetUnknownID(t *testing.T) {
	s, _ := rig(t, Config{})
	if _, err := s.ResultSet(QueryID(12345)); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestRegisterParseError(t *testing.T) {
	s, _ := rig(t, Config{})
	if _, err := s.Register("SELEC WRONG"); err == nil {
		t.Fatal("bad SQL accepted")
	}
}

func TestFlushEmptyIsNoop(t *testing.T) {
	s, link := rig(t, Config{})
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if link.Stats().RoundTrips != 0 {
		t.Fatal("empty flush consumed a round trip")
	}
}

func TestFlushErrorSurfacesAndQueueDrains(t *testing.T) {
	s, _ := rig(t, Config{})
	id, _ := s.Register("SELECT * FROM no_such_table")
	if _, err := s.ResultSet(id); err == nil {
		t.Fatal("expected execution error")
	}
}

func TestLazyThunkRegistersEagerly(t *testing.T) {
	s, link := rig(t, Config{})
	th := Lazy(s, "SELECT name FROM items WHERE id = 2")
	if s.PendingLen() != 1 {
		t.Fatal("Lazy did not register eagerly")
	}
	if link.Stats().RoundTrips != 0 {
		t.Fatal("Lazy executed eagerly")
	}
	res := th.Force()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.RS.Rows[0][0] != "pear" {
		t.Fatalf("rows = %v", res.RS.Rows)
	}
	// Forcing again hits the thunk memo, not the store.
	res2 := th.Force()
	if res2.RS != res.RS {
		t.Fatal("thunk did not memoize")
	}
}

func TestLazyBadSQLErrAtForce(t *testing.T) {
	s, _ := rig(t, Config{})
	th := Lazy(s, "BROKEN")
	if res := th.Force(); res.Err == nil {
		t.Fatal("expected error from Lazy force")
	}
}

func TestDedupResetAcrossBatches(t *testing.T) {
	// Identical SQL in a LATER batch is a new query (re-executed), matching
	// the paper: dedup applies to the current buffer only.
	s, link := rig(t, Config{})
	id1, _ := s.Register("SELECT qty FROM items WHERE id = 1")
	s.ResultSet(id1)
	id2, _ := s.Register("SELECT qty FROM items WHERE id = 1")
	if id1 == id2 {
		t.Fatal("dedup crossed a batch boundary")
	}
	s.ResultSet(id2)
	if link.Stats().RoundTrips != 2 {
		t.Fatalf("round trips = %d, want 2", link.Stats().RoundTrips)
	}
}

// Property: for any interleaving of reads over existing keys, the number of
// round trips equals the number of flush points (forces + writes), never
// the number of queries.
func TestQuickRoundTripsBoundedByFlushes(t *testing.T) {
	f := func(ops []uint8) bool {
		s, link := rig(&testing.T{}, Config{})
		forces := 0
		var ids []QueryID
		for _, op := range ops {
			key := int64(op%3) + 1
			if op%4 == 3 && len(ids) > 0 { // occasionally force
				if _, err := s.ResultSet(ids[len(ids)-1]); err != nil {
					return false
				}
				forces++
				ids = nil
			} else {
				id, err := s.Register("SELECT * FROM items WHERE id = ?", key)
				if err != nil {
					return false
				}
				ids = append(ids, id)
			}
		}
		return link.Stats().RoundTrips <= int64(forces)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaved reads and writes through the store read the same
// values as direct execution without the store.
func TestQuickStoreEquivalentToDirect(t *testing.T) {
	type op struct {
		Write bool
		Key   uint8
		Val   uint8
	}
	f := func(ops []op) bool {
		s, _ := rig(&testing.T{}, Config{})
		direct, _ := rig(&testing.T{}, Config{})

		var lazyReads []*struct {
			id   QueryID
			want *sqldb.ResultSet
		}
		for _, o := range ops {
			key := int64(o.Key%3) + 1
			if o.Write {
				sql := fmt.Sprintf("UPDATE items SET qty = %d WHERE id = %d", o.Val, key)
				if _, err := s.Register(sql); err != nil {
					return false
				}
				if _, err := direct.Exec(sql); err != nil {
					return false
				}
			} else {
				sql := fmt.Sprintf("SELECT qty FROM items WHERE id = %d", key)
				id, err := s.Register(sql)
				if err != nil {
					return false
				}
				want, err := direct.Exec(sql)
				if err != nil {
					return false
				}
				lazyReads = append(lazyReads, &struct {
					id   QueryID
					want *sqldb.ResultSet
				}{id, want})
			}
		}
		for _, r := range lazyReads {
			got, err := s.ResultSet(r.id)
			if err != nil {
				return false
			}
			if len(got.Rows) != len(r.want.Rows) {
				return false
			}
			for i := range got.Rows {
				if got.Rows[i][0] != r.want.Rows[i][0] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeEnabledStoreEquivalence runs the same registration sequence
// through a plain store and a merge-enabled store, requiring identical
// results per query id and strictly fewer executed statements.
func TestMergeEnabledStoreEquivalence(t *testing.T) {
	plain, _ := rig(t, Config{})
	merged, _ := rig(t, Config{Merge: merge.Config{Enabled: true}})

	register := func(s *Store) []QueryID {
		var ids []QueryID
		for i := 1; i <= 3; i++ {
			id, err := s.Register("SELECT id, name, qty FROM items WHERE id = ?", int64(i))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		id, err := s.Register("SELECT id, name FROM items WHERE qty > ?", int64(3))
		if err != nil {
			t.Fatal(err)
		}
		return append(ids, id)
	}

	plainIDs := register(plain)
	mergedIDs := register(merged)
	for i := range plainIDs {
		want, err := plain.ResultSet(plainIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := merged.ResultSet(mergedIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(want.Cols) != fmt.Sprint(got.Cols) || fmt.Sprint(want.Rows) != fmt.Sprint(got.Rows) {
			t.Fatalf("query %d: merged result differs\nwant %v %v\ngot  %v %v", i, want.Cols, want.Rows, got.Cols, got.Rows)
		}
	}

	if p, m := plain.Stats(), merged.Stats(); m.Executed >= p.Executed {
		t.Fatalf("merge saved nothing: plain executed %d, merged %d", p.Executed, m.Executed)
	} else if ms := merged.MergeStats(); ms.Saved != p.Executed-m.Executed || ms.Merged != 3 || ms.Groups != 1 {
		t.Fatalf("merge stats = %+v, want 3 merged into 1 group, saving %d", ms, p.Executed-m.Executed)
	}
}

// --- Deferred-error delivery and error-path coverage (dispatch pipeline) ---

// TestWriteFlushFailureRecordsDeferredErrors is the regression test for the
// dropped-queue bug: a failed write-triggered flush used to discard the
// pending ids, so forcing a read registered before the write reported
// "unknown query id" instead of the execution error. The flush error must
// now surface both at Register (synchronous dispatch) and at every force
// of an id from the failed batch.
func TestWriteFlushFailureRecordsDeferredErrors(t *testing.T) {
	s, _ := rig(t, Config{})
	rid, err := s.Register("SELECT * FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	_, werr := s.Register("UPDATE no_such_table SET x = 1")
	if werr == nil {
		t.Fatal("failing write accepted")
	}
	rrs, rerr := s.ResultSet(rid)
	if rerr == nil {
		t.Fatalf("read from failed batch returned %v, want the flush error", rrs)
	}
	if rerr.Error() != werr.Error() {
		t.Fatalf("force error %q, want original flush error %q", rerr, werr)
	}
	if strings.Contains(rerr.Error(), "unknown query id") {
		t.Fatalf("deferred error degraded to %q", rerr)
	}
}

// TestResultSetFailedBatchStable: forcing an id from a failed batch keeps
// returning the recorded execution error, not "unknown query id".
func TestResultSetFailedBatchStable(t *testing.T) {
	s, _ := rig(t, Config{})
	id, _ := s.Register("SELECT * FROM no_such_table")
	_, err1 := s.ResultSet(id)
	if err1 == nil {
		t.Fatal("expected execution error")
	}
	_, err2 := s.ResultSet(id)
	if err2 == nil || err2.Error() != err1.Error() {
		t.Fatalf("second force returned %v, want stable %v", err2, err1)
	}
	// A query registered after the failure executes normally.
	rs, err := s.Exec("SELECT name FROM items WHERE id = 3")
	if err != nil || rs.Rows[0][0] != "fig" {
		t.Fatalf("store unusable after failed batch: %v %v", rs, err)
	}
}

// TestBatchCapFlushUnderDisableDedup: with dedup off, duplicate statements
// count toward the cap and flush as distinct queries with distinct ids.
func TestBatchCapFlushUnderDisableDedup(t *testing.T) {
	s, link := rig(t, Config{BatchCap: 2, DisableDedup: true})
	id1, _ := s.Register("SELECT qty FROM items WHERE id = 1")
	if link.Stats().RoundTrips != 0 {
		t.Fatal("flushed before cap")
	}
	id2, _ := s.Register("SELECT qty FROM items WHERE id = 1")
	if id1 == id2 {
		t.Fatal("dedup happened despite DisableDedup")
	}
	if link.Stats().RoundTrips != 1 {
		t.Fatalf("cap did not flush: %d trips", link.Stats().RoundTrips)
	}
	if s.PendingLen() != 0 {
		t.Fatal("queue not drained at cap")
	}
	for _, id := range []QueryID{id1, id2} {
		rs, err := s.ResultSet(id)
		if err != nil || rs.Rows[0][0] != int64(5) {
			t.Fatalf("id %d: %v %v", id, rs, err)
		}
	}
	if st := s.Stats(); st.Executed != 2 || st.Batches != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAsyncStoreDeferredWriteError: under the async dispatcher a failing
// write-triggered flush does not fail Register — the error arrives at
// force time for every id in the batch (pipelined flush semantics).
func TestAsyncStoreDeferredWriteError(t *testing.T) {
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync})
	defer s.Close()
	rid, _ := s.Register("SELECT * FROM items WHERE id = 2")
	wid, err := s.Register("UPDATE no_such_table SET x = 1")
	if err != nil {
		t.Fatalf("async write registration surfaced flush error eagerly: %v", err)
	}
	if _, err := s.ResultSet(wid); err == nil {
		t.Fatal("write force missed the deferred execution error")
	}
	if _, err := s.ResultSet(rid); err == nil {
		t.Fatal("read force missed the deferred execution error")
	}
}

// TestAsyncStoreEquivalence: the async dispatcher returns the same rows as
// the synchronous one for an interleaved read/write sequence.
func TestAsyncStoreEquivalence(t *testing.T) {
	run := func(cfg Config) []string {
		s, _ := rig(t, cfg)
		defer s.Close()
		var out []string
		ids := []QueryID{}
		for i := 1; i <= 3; i++ {
			id, err := s.Register("SELECT name, qty FROM items WHERE id = ?", int64(i))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		if _, err := s.Exec("UPDATE items SET qty = 42 WHERE id = 2"); err != nil {
			t.Fatal(err)
		}
		post, err := s.Exec("SELECT qty FROM items WHERE id = 2")
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			rs, err := s.ResultSet(id)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, rs.String())
		}
		return append(out, post.String())
	}
	want := run(Config{})
	got := run(Config{Dispatch: dispatch.KindAsync})
	if fmt.Sprint(want) != fmt.Sprint(got) {
		t.Fatalf("async results diverge:\nsync  %v\nasync %v", want, got)
	}
}

// TestSharedStoresCoalesceViaHub: two stores feeding one hub execute an
// identical lookup once, and the hub counts the second as coalesced.
func TestSharedStoresCoalesceViaHub(t *testing.T) {
	clock := netsim.NewVirtualClock()
	db := engine.New()
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	boot := srv.Connect(netsim.NewLink(clock, 0))
	for _, sql := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, name TEXT)",
		"INSERT INTO items (id, name) VALUES (1, 'apple')",
	} {
		if _, err := boot.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	hub := dispatch.NewHub(srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0)))
	mk := func() *Store {
		return New(srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0)),
			Config{Dispatch: dispatch.KindShared, Hub: hub})
	}
	s1, s2 := mk(), mk()
	id1, _ := s1.Register("SELECT name FROM items WHERE id = 1")
	id2, _ := s2.Register("SELECT name FROM items WHERE id = 1")
	s1.FlushAsync()
	s2.FlushAsync()
	before := srv.Stats().Queries
	rs1, err := s1.ResultSet(id1)
	if err != nil || rs1.Rows[0][0] != "apple" {
		t.Fatalf("s1: %v %v", rs1, err)
	}
	rs2, err := s2.ResultSet(id2)
	if err != nil || rs2.Rows[0][0] != "apple" {
		t.Fatalf("s2: %v %v", rs2, err)
	}
	if got := srv.Stats().Queries - before; got != 1 {
		t.Fatalf("server executed %d statements, want 1", got)
	}
	if c := hub.Stats().Coalesced; c != 1 {
		t.Fatalf("hub coalesced %d statements, want 1", c)
	}
}

// TestSharedWindowKeepsSubmittedBatch: the store hands its queue to the
// dispatcher and reuses the array for the next batch, so a shared window —
// which reads its entries only when it closes — must park its own copy.
// A and B wait in a quorum-less window while C and D are registered into
// the same array; forcing A then closes the window with both batches, and
// every id must still answer its own statement.
func TestSharedWindowKeepsSubmittedBatch(t *testing.T) {
	_, _, _, mk := sharedRig(t, merge.Config{})
	s := mk()
	reg := func(sql string, arg int64) QueryID {
		t.Helper()
		id, err := s.Register(sql, arg)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	const byID = "SELECT name FROM items WHERE id = ?"
	a, b := reg(byID, 1), reg(byID, 2)
	s.FlushAsync()
	c, d := reg(byID, 3), reg("SELECT name FROM items WHERE qty > ? ORDER BY id", 6)
	for _, tc := range []struct {
		id   QueryID
		want string
	}{{a, "[[apple]]"}, {b, "[[pear]]"}, {c, "[[fig]]"}, {d, "[[pear]]"}} {
		rs, err := s.ResultSet(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rs.Rows); got != tc.want {
			t.Fatalf("id %d: rows %s, want %s", tc.id, got, tc.want)
		}
	}
}

// sharedRig builds a server and a hub (merging with its own merger, returned
// non-nil, when cfgMerge is enabled) plus a store factory for shared-dispatch
// stores.
func sharedRig(t *testing.T, cfgMerge merge.Config) (*driver.Server, *dispatch.Hub, *merge.Merger, func() *Store) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	db := engine.New()
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	boot := srv.Connect(netsim.NewLink(clock, 0))
	for _, sql := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT)",
		"INSERT INTO items (id, name, qty) VALUES (1, 'apple', 5), (2, 'pear', 7), (3, 'fig', 2)",
	} {
		if _, err := boot.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	var stages []dispatch.Stage
	var m *merge.Merger
	if cfgMerge.Enabled {
		m = merge.New(cfgMerge)
		stages = append(stages, dispatch.MergeStage(m))
	}
	hub := dispatch.NewHub(srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0)), stages...)
	mk := func() *Store {
		return New(srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0)),
			Config{Dispatch: dispatch.KindShared, Hub: hub, Merge: cfgMerge})
	}
	return srv, hub, m, mk
}

// TestSharedStoreMergeStatsNonzero: when the shared hub's merge stage
// coalesces a cross-session family, the hub's merger counts the savings, once:
// the stores' own mergers never see a window batch.
func TestSharedStoreMergeStatsNonzero(t *testing.T) {
	srv, hub, hubMerger, mk := sharedRig(t, merge.Config{Enabled: true})
	s1, s2 := mk(), mk()

	// Each store contributes two members of the same point-lookup family:
	// the window coalesces the shared id 2 and merges the other 3 into 1.
	ids1 := []QueryID{}
	ids2 := []QueryID{}
	for _, id := range []int64{1, 2} {
		qid, err := s1.Register("SELECT id, name FROM items WHERE id = ?", id)
		if err != nil {
			t.Fatal(err)
		}
		ids1 = append(ids1, qid)
	}
	for _, id := range []int64{3, 2} {
		qid, err := s2.Register("SELECT id, name FROM items WHERE id = ?", id)
		if err != nil {
			t.Fatal(err)
		}
		ids2 = append(ids2, qid)
	}
	s1.FlushAsync()
	s2.FlushAsync()
	before := srv.Stats().Queries
	for i, want := range []string{"apple", "pear"} {
		rs, err := s1.ResultSet(ids1[i])
		if err != nil || rs.Rows[0][1] != want {
			t.Fatalf("s1 id %d: %v %v", i, rs, err)
		}
	}
	for i, want := range []string{"fig", "pear"} {
		rs, err := s2.ResultSet(ids2[i])
		if err != nil || rs.Rows[0][1] != want {
			t.Fatalf("s2 id %d: %v %v", i, rs, err)
		}
	}
	if got := srv.Stats().Queries - before; got != 1 {
		t.Fatalf("server executed %d statements, want 1 merged", got)
	}

	if ms := hubMerger.Stats(); ms.Saved != 2 || ms.Groups != 1 || ms.SavedByFamily[merge.FamilyEquality] != 2 {
		t.Fatalf("hub merge stats %+v, want saved 2 (equality) in 1 group", ms)
	}
	if c := hub.Stats().Coalesced; c != 1 {
		t.Fatalf("hub coalesced %d statements, want 1", c)
	}
	for i, s := range []*Store{s1, s2} {
		if ms := s.MergeStats(); ms.Batches != 0 {
			t.Fatalf("store %d merged window batches itself: %+v", i+1, ms)
		}
	}
}

// TestSharedWindowErrorReachesEverySessionIDs pins deferred-error delivery
// through the shared window: when the combined window fails, every id of
// every contributing store must report the execution error at force time
// (not "unknown query id"), including ids registered by the session that
// did not submit the failing statement.
func TestSharedWindowErrorReachesEverySessionIDs(t *testing.T) {
	_, hub, _, mk := sharedRig(t, merge.Config{})
	s1, s2 := mk(), mk()

	good1, err := s1.Register("SELECT name FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	good2, err := s1.Register("SELECT name FROM items WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s2.Register("SELECT name FROM no_such_table")
	if err != nil {
		t.Fatal(err)
	}
	s1.FlushAsync()
	s2.FlushAsync()
	hub.CloseWindow()

	for _, id := range []QueryID{good1, good2} {
		if _, err := s1.ResultSet(id); err == nil {
			t.Fatalf("s1 id %d: window error not delivered", id)
		} else if strings.Contains(err.Error(), "unknown query id") {
			t.Fatalf("s1 id %d: got %q, want the execution error", id, err)
		}
	}
	if _, err := s2.ResultSet(bad); err == nil {
		t.Fatal("s2: window error not delivered")
	}
	if hub.Stats().Errors != 1 {
		t.Fatalf("hub Errors = %d, want 1", hub.Stats().Errors)
	}
}
