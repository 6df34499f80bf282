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
	// Seed over a connection of its own, so the test link's counters
	// start at zero.
	seed := srv.Connect(netsim.NewLink(clock, time.Millisecond))
	for _, sql := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT)",
		"INSERT INTO items (id, name, qty) VALUES (1, 'apple', 5), (2, 'pear', 7), (3, 'fig', 2)",
	} {
		if _, err := seed.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	link := netsim.NewLink(clock, time.Millisecond)
	conn := srv.Connect(link)
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
	if len(s.queue) != 1 {
		t.Fatalf("pending = %d, want 1", len(s.queue))
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
	if st.Batches != 1 || st.MaxBatch != 3 || s.conn.QueriesSent() != 3 {
		t.Fatalf("stats = %+v, statements sent %d", st, s.conn.QueriesSent())
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
	if len(s.queue) != 2 {
		t.Fatalf("pending = %d, want 2", len(s.queue))
	}
}

func TestDedupDisabled(t *testing.T) {
	s, _ := rig(t, Config{DisableDedup: true})
	id1, _ := s.Register("SELECT * FROM items WHERE id = 1")
	id2, _ := s.Register("SELECT * FROM items WHERE id = 1")
	if id1 == id2 {
		t.Fatal("dedup happened despite DisableDedup")
	}
	if len(s.queue) != 2 {
		t.Fatalf("pending = %d, want 2", len(s.queue))
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
	if len(s.queue) != 0 {
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

// TestDeleteAndDDLFlush: the flush rule is "every non-SELECT", not "INSERT
// and UPDATE". A DELETE and a CREATE INDEX each send the pending read with
// them, in statement order: the read sees the row the DELETE removes.
func TestDeleteAndDDLFlush(t *testing.T) {
	s, link := rig(t, Config{})
	rid, _ := s.Register("SELECT qty FROM items WHERE id = 2")
	if _, err := s.Register("DELETE FROM items WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if link.Stats().RoundTrips != 1 {
		t.Fatalf("DELETE did not flush: %d trips", link.Stats().RoundTrips)
	}
	if rs, err := s.ResultSet(rid); err != nil || rs.NumRows() != 1 || rs.Rows[0][0] != int64(7) {
		t.Fatalf("read before the DELETE = %+v, %v; want the deleted row's qty 7", rs, err)
	}
	s.Register("SELECT qty FROM items WHERE id = 3")
	if _, err := s.Register("CREATE INDEX items_qty ON items (qty)"); err != nil {
		t.Fatal(err)
	}
	if link.Stats().RoundTrips != 2 || s.Stats().ForcedByWrite != 2 {
		t.Fatalf("CREATE INDEX did not flush: %d trips, ForcedByWrite %d", link.Stats().RoundTrips, s.Stats().ForcedByWrite)
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
	if len(s.queue) != 0 {
		t.Fatal("queue not drained at cap")
	}
}

func TestResultSetUnknownID(t *testing.T) {
	s, _ := rig(t, Config{})
	if _, err := s.ResultSet(QueryID(12345)); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestRegisterParseError: a statement that does not parse fails at
// Register with nothing queued, counted or sent, whatever its first word.
func TestRegisterParseError(t *testing.T) {
	s, link := rig(t, Config{})
	for _, sql := range []string{"SELEC WRONG", "UPDATE items SET", "SELECT name FROM"} {
		if _, err := s.Register(sql); err == nil || !strings.HasPrefix(err.Error(), "driver: sql: ") {
			t.Fatalf("Register(%q) err = %v, want the parse error", sql, err)
		}
	}
	if len(s.queue) != 0 || s.Stats().Registered != 0 || s.Stats().ForcedByWrite != 0 || link.Stats().RoundTrips != 0 {
		t.Fatalf("a parse error left traces: queue %d, stats %+v, round trips %d", len(s.queue), s.Stats(), link.Stats().RoundTrips)
	}
}

// TestMalformedReadFailsAlone: a malformed statement that starts with
// SELECT fails at its own Register and costs no round trip; the valid read
// registered beside it is not failed by it.
func TestMalformedReadFailsAlone(t *testing.T) {
	s, link := rig(t, Config{})
	good, err := s.Register("SELECT name FROM items WHERE id = ?", int64(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("SELECT 'oops FROM items"); err == nil {
		t.Fatal("a malformed read was accepted at Register")
	}
	if link.Stats().RoundTrips != 0 {
		t.Fatal("the malformed read cost a round trip")
	}
	rs, err := s.ResultSet(good)
	if err != nil {
		t.Fatalf("the valid read failed beside a malformed one: %v", err)
	}
	if rs.Rows[0][0] != "pear" || link.Stats().RoundTrips != 1 || s.conn.QueriesSent() != 1 {
		t.Fatalf("rows %v, round trips %d, sent %d; want pear in one trip of one statement", rs.Rows, link.Stats().RoundTrips, s.conn.QueriesSent())
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
	if len(s.queue) != 1 {
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

	if p, m := plain.conn.QueriesSent(), merged.conn.QueriesSent(); m >= p {
		t.Fatalf("merge saved nothing: plain sent %d, merged %d", p, m)
	} else if ms := merged.MergeStats(); ms.Saved != p-m || ms.Merged != 3 || ms.Groups != 1 {
		t.Fatalf("merge stats = %+v, want 3 merged into 1 group, saving %d", ms, p-m)
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
	if len(s.queue) != 0 {
		t.Fatal("queue not drained at cap")
	}
	for _, id := range []QueryID{id1, id2} {
		rs, err := s.ResultSet(id)
		if err != nil || rs.Rows[0][0] != int64(5) {
			t.Fatalf("id %d: %v %v", id, rs, err)
		}
	}
	if st := s.Stats(); s.conn.QueriesSent() != 2 || st.Batches != 1 {
		t.Fatalf("stats = %+v, statements sent %d", st, s.conn.QueriesSent())
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
