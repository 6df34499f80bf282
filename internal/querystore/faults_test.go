package querystore

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/merge"
	"repro/internal/netsim"
	"repro/internal/sqldb"
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

// TestDegradedErrorPerID: with merging enabled, a poisoned key fails ONLY
// its own query id; sibling ids merged into the same IN-list still return
// rows, and the poisoned id's error is typed and force-deliverable.
func TestDegradedErrorPerID(t *testing.T) {
	s, srv := faultRig(t, Config{
		Merge: merge.Config{Enabled: true},
		Retry: faultRetry(),
	})
	defer s.Close()
	srv.SetFaults(faults.NewPlane(faults.Config{PoisonArgs: []sqldb.Value{int64(2)}}))
	var ids []QueryID
	for i := 1; i <= 3; i++ {
		id, err := s.Register("SELECT name FROM items WHERE id = ?", int64(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	rs, err := s.ResultSet(ids[0])
	if err != nil || rs.Rows[0][0] != "apple" {
		t.Fatalf("id[0]: rs=%v err=%v", rs, err)
	}
	if _, err := s.ResultSet(ids[1]); !errors.Is(err, faults.ErrPermanent) {
		t.Fatalf("poisoned id: err = %v", err)
	}
	rs, err = s.ResultSet(ids[2])
	if err != nil || rs.Rows[0][0] != "fig" {
		t.Fatalf("id[2]: rs=%v err=%v", rs, err)
	}
}

// TestPipelinedWriteDegradedErrorOnce: a fire-and-forget write whose
// statement fails in a degraded batch delivers its error exactly once, at
// the next barrier, like any other pipelined-write failure.
func TestPipelinedWriteDegradedErrorOnce(t *testing.T) {
	s, srv := faultRig(t, Config{
		Dispatch:       dispatch.KindAsync,
		PipelineWrites: true,
		Retry:          faultRetry(),
	})
	defer s.Close()
	srv.SetFaults(faults.NewPlane(faults.Config{PoisonArgs: []sqldb.Value{int64(99)}}))
	// Two statements so the failed batch can degrade: a clean speculative
	// read plus the poisoned pipelined write.
	if _, err := s.Register("SELECT name FROM items WHERE id = ?", int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.ExecPipelined("UPDATE items SET qty = ? WHERE id = ?", int64(0), int64(99)); err != nil {
		t.Fatal(err)
	}
	err := s.Flush()
	if !errors.Is(err, faults.ErrPermanent) {
		t.Fatalf("barrier did not deliver the write error: %v", err)
	}
	if !strings.Contains(err.Error(), "poison") {
		t.Fatalf("err = %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("write error delivered twice: %v", err)
	}
}
