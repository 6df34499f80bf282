package querystore

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/merge"
	"repro/internal/netsim"
	"repro/internal/sqldb/engine"
)

// faultRig is rig plus the server, so tests can install a fault plane.
func faultRig(t *testing.T, cfg Config) (*Store, *driver.Server) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	db := engine.New()
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	conn := srv.Connect(netsim.NewLink(clock, time.Millisecond))
	for _, sql := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT)",
		"INSERT INTO items (id, name, qty) VALUES (1, 'apple', 5), (2, 'pear', 7), (3, 'fig', 2)",
	} {
		if _, err := conn.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	return New(conn, cfg), srv
}

func faultRetry() dispatch.RetryPolicy {
	return dispatch.RetryPolicy{MaxAttempts: 8}
}

// TestUnknownQueryIDSentinel: the stringly error is now a typed sentinel —
// errors.Is matches it and the historical message is preserved.
func TestUnknownQueryIDSentinel(t *testing.T) {
	s, _ := faultRig(t, Config{})
	defer s.Close()
	_, err := s.ResultSet(QueryID(42))
	if !errors.Is(err, ErrUnknownQueryID) {
		t.Fatalf("err = %v, want ErrUnknownQueryID", err)
	}
	if got := err.Error(); got != "querystore: unknown query id 42" {
		t.Fatalf("message changed: %q", got)
	}
}

// TestStoreRetriesThroughOutage: the store's configured retry policy walks a
// flush through an outage window; results land and no error surfaces.
func TestStoreRetriesThroughOutage(t *testing.T) {
	s, srv := faultRig(t, Config{Retry: faultRetry()})
	defer s.Close()
	srv.SetFaults(faults.NewPlane(faults.Config{
		Outages: []faults.Outage{{Shard: 0, From: 0, To: 4 * time.Millisecond}},
	}))
	id, err := s.Register("SELECT name FROM items WHERE id = ?", int64(1))
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s.ResultSet(id)
	if err != nil || rs.Rows[0][0] != "apple" {
		t.Fatalf("rs=%v err=%v", rs, err)
	}
	if ds := s.Dispatcher().Stats(); ds.Retries == 0 || ds.Errors != 0 {
		t.Fatalf("dispatcher stats = %+v", ds)
	}
}

// TestDegradedErrorPerID: with merging on and the default synchronous
// dispatcher, three reads merged into one batch run into an outage that
// outlasts the retry walk. Each id reports the batch's one typed fault at
// force — no id gets rows and no id loses the error — and a read
// registered once the outage is over gets its rows.
func TestDegradedErrorPerID(t *testing.T) {
	s, srv := faultRig(t, Config{
		Merge: merge.Config{Enabled: true},
		Retry: faultRetry(),
	})
	defer s.Close()
	const outageEnd = 40 * time.Millisecond
	srv.SetFaults(faults.NewPlane(faults.Config{
		Outages: []faults.Outage{{Shard: 0, From: 0, To: outageEnd}},
	}))
	var ids []QueryID
	for i := 1; i <= 3; i++ {
		id, err := s.Register("SELECT name FROM items WHERE id = ?", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	var batchErr *faults.Error
	if _, err := s.ResultSet(ids[0]); !errors.As(err, &batchErr) || batchErr.Kind != "outage" {
		t.Fatalf("id[0]: err = %v, want an outage", err)
	}
	for i, id := range ids[1:] {
		var fe *faults.Error
		if rs, err := s.ResultSet(id); !errors.As(err, &fe) || fe != batchErr {
			t.Fatalf("id[%d]: rs=%v err=%v, want the batch's fault %v", i+1, rs, err, batchErr)
		}
	}
	if ds := s.Dispatcher().Stats(); s.Stats().Batches != 1 || ds.Errors != 1 || ds.Retries != 7 {
		t.Fatalf("dispatcher stats = %+v, want one merged batch failing after 7 retries", ds)
	}

	s.EndRequest()
	netsim.AdvanceTo(s.conn.Clock(), outageEnd)
	id, err := s.Register("SELECT name FROM items WHERE id = ?", int64(2))
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := s.ResultSet(id); err != nil || rs.Rows[0][0] != "pear" {
		t.Fatalf("read after the outage: rs=%v err=%v", rs, err)
	}
}

// TestPipelinedWriteDegradedErrorOnce: a fire-and-forget write whose batch
// fails terminally delivers its error exactly once, at the next barrier,
// like any other pipelined-write failure, and never lands.
func TestPipelinedWriteDegradedErrorOnce(t *testing.T) {
	s, srv := faultRig(t, Config{
		Dispatch:       dispatch.KindAsync,
		PipelineWrites: true,
		Retry:          faultRetry(),
	})
	defer s.Close()
	const outageEnd = 40 * time.Millisecond
	srv.SetFaults(faults.NewPlane(faults.Config{
		Outages: []faults.Outage{{Shard: 0, From: 0, To: outageEnd}},
	}))
	// A speculative read plus the pipelined write, unmerged, in one batch.
	if _, err := s.Register("SELECT name FROM items WHERE id = ?", int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.ExecPipelined("UPDATE items SET qty = ? WHERE id = ?", int64(0), int64(3)); err != nil {
		t.Fatal(err)
	}
	var fe *faults.Error
	if err := s.Flush(); !errors.As(err, &fe) || fe.Kind != "outage" {
		t.Fatalf("barrier did not deliver the write error: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("write error delivered twice: %v", err)
	}

	s.EndRequest()
	netsim.AdvanceTo(s.conn.Clock(), outageEnd)
	rs, err := s.Exec("SELECT qty FROM items WHERE id = ?", int64(3))
	if err != nil || rs.Rows[0][0] != int64(2) {
		t.Fatalf("rows=%v err=%v, want qty 2: the failed write must not land", rs, err)
	}
}

// TestRetryExhaustedMergedBatch: with merging on, three reads and a
// pipelined write ride one batch into an outage that outlasts the retry
// walk. The write's failure reaches the next barrier exactly once, every
// id of the batch reports the same typed fault at force, nothing the batch
// carried lands, and the next request on the same store — once the outage
// is over — succeeds.
func TestRetryExhaustedMergedBatch(t *testing.T) {
	s, srv := faultRig(t, Config{
		Merge:          merge.Config{Enabled: true},
		Dispatch:       dispatch.KindAsync,
		PipelineWrites: true,
		Retry:          faultRetry(),
	})
	defer s.Close()
	const outageEnd = 40 * time.Millisecond
	srv.SetFaults(faults.NewPlane(faults.Config{
		Outages: []faults.Outage{{Shard: 0, From: 0, To: outageEnd}},
	}))
	var ids []QueryID
	for i := 1; i <= 3; i++ {
		id, err := s.Register("SELECT id, name FROM items WHERE id = ?", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := s.ExecPipelined("UPDATE items SET qty = ? WHERE id = ?", int64(0), int64(1)); err != nil {
		t.Fatal(err)
	}
	if ds := s.Dispatcher().Stats(); s.Stats().Batches != 1 || ds.StmtsOut != 2 || ds.Errors != 1 || ds.Retries != 7 {
		t.Fatalf("dispatcher stats = %+v, want one merged batch of 2 failing after 7 retries", ds)
	}
	if now := s.conn.Clock().Now(); now >= outageEnd {
		t.Fatalf("retry walk ended at %v, past the outage end %v", now, outageEnd)
	}

	err := s.Flush()
	var batchErr *faults.Error
	if !errors.As(err, &batchErr) || batchErr.Kind != "outage" {
		t.Fatalf("barrier did not deliver the write's outage: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("write error delivered twice: %v", err)
	}
	for i, id := range ids {
		var fe *faults.Error
		if _, err := s.ResultSet(id); !errors.As(err, &fe) || fe != batchErr {
			t.Fatalf("id[%d]: err = %v, want the batch's fault %v", i, err, batchErr)
		}
	}

	s.EndRequest()
	netsim.AdvanceTo(s.conn.Clock(), outageEnd)
	rs, err := s.Exec("SELECT name, qty FROM items WHERE id = ?", int64(1))
	if err != nil || rs.Rows[0][0] != "apple" || rs.Rows[0][1] != int64(5) {
		t.Fatalf("next request: rows=%v err=%v, want apple with its qty untouched", rs, err)
	}
}
