package tpcc

import (
	"errors"
	"testing"

	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/querystore"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
)

// freshConn seeds a database of its own and connects to it on a zero cost
// model, as the overhead workload does.
func freshConn(t *testing.T) *driver.Conn {
	t.Helper()
	db := engine.New()
	if err := Seed(db, DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	clock := netsim.NewVirtualClock()
	return driver.NewServer(db, clock, driver.CostModel{}).Connect(netsim.NewLink(clock, 0))
}

// queryAllocs is the mean allocation count of one exec.Query(sql, args...)
// after 200 warm-up rounds of the same statement.
func queryAllocs(t *testing.T, exec Executor, sql string, args ...sqldb.Value) float64 {
	t.Helper()
	run := func() {
		if _, err := exec.Query(sql, args...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		run()
	}
	return testing.AllocsPerRun(5000, run)
}

// TestSlothQueryAllocatesLikeDirect is Fig. 13's bookkeeping bound in
// allocations: a statement forced at once through the query store costs
// what the conventional driver call costs plus the thunk and its closure,
// for a read and for a write. Each executor gets its own database, so both
// run the same statement against the same state.
func TestSlothQueryAllocatesLikeDirect(t *testing.T) {
	for _, tc := range []struct {
		name string
		sql  string
		args []sqldb.Value
	}{
		{"select", "SELECT i_price FROM item WHERE i_id = ?", []sqldb.Value{int64(7)}},
		{"update", "UPDATE stock SET s_quantity = ?, s_ytd = s_ytd + ? WHERE s_id = ?",
			[]sqldb.Value{int64(50), int64(3), stockID(1, 7)}},
	} {
		direct := queryAllocs(t, DirectExecutor{Conn: freshConn(t)}, tc.sql, tc.args...)
		sloth := queryAllocs(t, SlothExecutor{Store: querystore.New(freshConn(t), querystore.Config{})}, tc.sql, tc.args...)
		t.Logf("%s: sloth %v allocs, direct %v", tc.name, sloth, direct)
		if sloth-direct > 2 {
			t.Errorf("%s: sloth %v allocs against direct %v; the lazy path may add only the thunk and its closure", tc.name, sloth, direct)
		}
		if tc.name == "update" && direct > 9 {
			t.Errorf("update: direct %v allocs, want <= 9 (storage adopts the engine's row)", direct)
		}
	}
}

// TestSlothExecutorReleasesResults: a long-lived store behind the executor
// holds one statement's results, not every result it has fetched, so a
// query id from a thousand statements ago is unknown to it.
func TestSlothExecutorReleasesResults(t *testing.T) {
	store := querystore.New(freshConn(t), querystore.Config{})
	exec := SlothExecutor{Store: store}
	for i := 0; i < 1000; i++ {
		if _, err := exec.Query("SELECT i_price FROM item WHERE i_id = ?", int64(1+i%200)); err != nil {
			t.Fatal(err)
		}
	}
	if rs, err := store.ResultSet(0); !errors.Is(err, querystore.ErrUnknownQueryID) {
		t.Fatalf("the first statement's id returned (%v, %v), want ErrUnknownQueryID", rs, err)
	}
}
