package driver

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
)

// rig builds a server over a table seeded directly in the engine and one
// connection at the given RTT over a virtual clock. The server has run no
// batch yet, so its counters start at zero and SetWorkers may still size
// its pool.
func rig(t *testing.T, rtt time.Duration) (*netsim.VirtualClock, *Server, *Conn) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	db := engine.New()
	seed := db.NewSession()
	for _, sql := range []string{
		"CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)",
		"INSERT INTO kv (k, v) VALUES (1, 'one'), (2, 'two'), (3, 'three')",
	} {
		if _, err := seed.Exec(sql); err != nil {
			t.Fatalf("seed %q: %v", sql, err)
		}
	}
	srv := NewServer(db, clock, DefaultCostModel())
	conn := srv.Connect(netsim.NewLink(clock, rtt))
	return clock, srv, conn
}

// prep prepares a statement as the query store's Register does.
func prep(sql string, args ...sqldb.Value) Stmt {
	st, err := Prepare(sql, args...)
	if err != nil {
		panic(err)
	}
	return st
}

func mustExec(t *testing.T, c *Conn, sql string, args ...sqldb.Value) *sqldb.ResultSet {
	t.Helper()
	rs, err := c.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rs
}

func TestQuerySingleRoundTrip(t *testing.T) {
	_, _, conn := rig(t, time.Millisecond)
	rs := mustExec(t, conn, "SELECT v FROM kv WHERE k = 2")
	if rs.Rows[0][0] != "two" {
		t.Fatalf("rows = %v", rs.Rows)
	}
	if got := conn.Link().Stats().RoundTrips; got != 1 {
		t.Fatalf("round trips = %d, want 1", got)
	}
}

func TestEachQueryCostsOneRoundTrip(t *testing.T) {
	_, _, conn := rig(t, time.Millisecond)
	for i := 0; i < 5; i++ {
		mustExec(t, conn, "SELECT * FROM kv")
	}
	if got := conn.Link().Stats().RoundTrips; got != 5 {
		t.Fatalf("round trips = %d, want 5", got)
	}
	if conn.QueriesSent() != 5 {
		t.Fatalf("queries sent = %d, want 5", conn.QueriesSent())
	}
}

func TestExecBatchOneRoundTripManyQueries(t *testing.T) {
	_, srv, conn := rig(t, time.Millisecond)
	stmts := []Stmt{
		prep("SELECT v FROM kv WHERE k = 1"),
		prep("SELECT v FROM kv WHERE k = 2"),
		prep("SELECT v FROM kv WHERE k = 3"),
	}
	results, err := conn.ExecBatch(stmts)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Rows[0][0] != "one" || results[2].Rows[0][0] != "three" {
		t.Fatalf("batch results wrong: %v", results)
	}
	if got := conn.Link().Stats().RoundTrips; got != 1 {
		t.Fatalf("round trips = %d, want 1", got)
	}
	if got := srv.Stats().Queries; got != 3 {
		t.Fatalf("server queries = %d, want 3", got)
	}
	if got := srv.Stats().Batches; got != 1 {
		t.Fatalf("server batches = %d, want 1", got)
	}
}

func TestBatchedReadsRunInParallel(t *testing.T) {
	// Same three reads issued as three singletons vs one batch: the batch
	// must charge less DB time (max + dispatch, not sum).
	_, srvA, connA := rig(t, 0)
	for k := 1; k <= 3; k++ {
		mustExec(t, connA, "SELECT * FROM kv WHERE k = ?", int64(k))
	}
	serialDB := srvA.Stats().DBTime

	_, srvB, connB := rig(t, 0)
	var stmts []Stmt
	for k := 1; k <= 3; k++ {
		stmts = append(stmts, prep("SELECT * FROM kv WHERE k = ?", int64(k)))
	}
	if _, err := connB.ExecBatch(stmts); err != nil {
		t.Fatal(err)
	}
	batchDB := srvB.Stats().DBTime
	if batchDB >= serialDB {
		t.Fatalf("batch DB time %v >= serial %v; reads did not parallelize", batchDB, serialDB)
	}
}

func TestWritesSerializeInBatch(t *testing.T) {
	_, srv, conn := rig(t, 0)
	stmts := []Stmt{
		prep("INSERT INTO kv (k, v) VALUES (10, 'a')"),
		prep("INSERT INTO kv (k, v) VALUES (11, 'b')"),
	}
	if _, err := conn.ExecBatch(stmts); err != nil {
		t.Fatal(err)
	}
	// Two writes must cost at least 2× the per-query cost (serial).
	if srv.Stats().DBTime < 2*DefaultCostModel().PerQuery {
		t.Fatalf("write batch DB time %v too small for serial writes", srv.Stats().DBTime)
	}
	rs := mustExec(t, conn, "SELECT COUNT(*) FROM kv")
	if rs.Rows[0][0] != int64(5) {
		t.Fatalf("count = %v", rs.Rows[0][0])
	}
}

func TestClockAdvancesByRTTAndDBTime(t *testing.T) {
	clock, srv, conn := rig(t, 10*time.Millisecond)
	start := clock.Now()
	mustExec(t, conn, "SELECT * FROM kv")
	total := clock.Now() - start
	net := conn.Link().Stats().NetTime
	db := srv.Stats().DBTime
	if net != 10*time.Millisecond {
		t.Fatalf("net time = %v", net)
	}
	if total != net+db {
		t.Fatalf("clock %v != net %v + db %v", total, net, db)
	}
}

func TestBatchErrorPropagates(t *testing.T) {
	_, _, conn := rig(t, 0)
	_, err := conn.ExecBatch([]Stmt{
		prep("SELECT * FROM kv"),
		prep("SELECT * FROM missing_table"),
	})
	if err == nil {
		t.Fatal("expected error from bad statement in batch")
	}
	_, err = conn.Query("NOT EVEN SQL")
	if err == nil {
		t.Fatal("expected parse error")
	}
}

func TestEmptyBatchIsFree(t *testing.T) {
	_, _, conn := rig(t, time.Millisecond)
	results, err := conn.ExecBatch(nil)
	if err != nil || results != nil {
		t.Fatalf("empty batch = %v, %v", results, err)
	}
	if conn.Link().Stats().RoundTrips != 0 {
		t.Fatal("empty batch consumed a round trip")
	}
}

func TestCostModelRowsScale(t *testing.T) {
	// A scan over more rows must cost more DB time.
	clock := netsim.NewVirtualClock()
	db := engine.New()
	srv := NewServer(db, clock, DefaultCostModel())
	conn := srv.Connect(netsim.NewLink(clock, 0))
	mustExec(t, conn, "CREATE TABLE big (id INT PRIMARY KEY, v INT)")
	for i := 1; i <= 200; i++ {
		mustExec(t, conn, "INSERT INTO big (id, v) VALUES (?, ?)", int64(i), int64(i))
	}
	before := srv.Stats().DBTime
	mustExec(t, conn, "SELECT COUNT(*) FROM big WHERE v > 0")
	mid := srv.Stats().DBTime
	mustExec(t, conn, "SELECT * FROM big WHERE id = 5")
	scanCost, pointCost := mid-before, srv.Stats().DBTime-mid
	if scanCost <= pointCost {
		t.Fatalf("scan %v not more expensive than point lookup %v", scanCost, pointCost)
	}
}
