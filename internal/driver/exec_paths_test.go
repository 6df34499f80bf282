package driver

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sqldb"
)

// These tests pin the one statement loop behind Conn.Exec: whichever
// executor a batch gets (snapshot worker slot or the serialized session) it
// is priced, laid out and accounted by the same code, tracing only observes,
// and the error contract of the old two loops still holds.

// stmtSlot is one traced statement's place in its batch's server-time
// layout, relative to the batch's start on its DB worker.
type stmtSlot struct {
	sql      string
	off, dur time.Duration
	path     string
	rows     any
}

// stmtLayout extracts the per-statement layout of the one batch tr recorded.
func stmtLayout(t *testing.T, tr *obs.Tracer) []stmtSlot {
	t.Helper()
	var base time.Duration
	var out []stmtSlot
	for _, sp := range tr.Spans() {
		switch {
		case sp.Cat == "db" && sp.Name == "batch":
			base = sp.Start
		case sp.Cat == "stmt":
			slot := stmtSlot{sql: sp.Name, off: sp.Start - base, dur: sp.End - sp.Start}
			for _, a := range sp.Args {
				switch a.K {
				case "path":
					slot.path = a.V.(string)
				case "rows":
					slot.rows = a.V
				}
			}
			out = append(out, slot)
		}
	}
	return out
}

// readShapes are the generated statement shapes over the kv rig: point,
// IN list, scan, aggregate, and ORDER BY + LIMIT. Keys range past the
// table so some lookups miss.
var readShapes = []func(rng *rand.Rand) Stmt{
	func(rng *rand.Rand) Stmt {
		return Stmt{SQL: "SELECT v FROM kv WHERE k = ?", Args: []sqldb.Value{int64(rng.Intn(50))}}
	},
	func(rng *rand.Rand) Stmt {
		return Stmt{SQL: "SELECT k, v FROM kv WHERE k IN (?, ?, ?)",
			Args: []sqldb.Value{int64(rng.Intn(50)), int64(rng.Intn(50)), int64(rng.Intn(50))}}
	},
	func(rng *rand.Rand) Stmt {
		return Stmt{SQL: "SELECT * FROM kv WHERE v <> ?", Args: []sqldb.Value{fmt.Sprintf("v%d", rng.Intn(50))}}
	},
	func(rng *rand.Rand) Stmt {
		return Stmt{SQL: "SELECT COUNT(*) AS n, MAX(k) AS hi FROM kv WHERE k > ?", Args: []sqldb.Value{int64(rng.Intn(50))}}
	},
	func(rng *rand.Rand) Stmt {
		return Stmt{SQL: fmt.Sprintf("SELECT k, v FROM kv ORDER BY v DESC LIMIT %d", 1+rng.Intn(8))}
	},
}

// TestReadBatchCostMatchesSerialPath: for generated read batches, the
// snapshot executor and the serialized executor (the same batch inside
// BEGIN…COMMIT) must agree on results, completion time, DBTime, Rows and
// the traced per-statement layout — golden timelines cannot depend on
// which executor a batch gets.
func TestReadBatchCostMatchesSerialPath(t *testing.T) {
	type side struct {
		srv  *Server
		conn *Conn
	}
	var snap, serial side
	for _, sd := range []*side{&snap, &serial} {
		_, sd.srv, sd.conn = rig(t, time.Millisecond)
		for k := 4; k <= 40; k++ {
			mustExec(t, sd.conn, "INSERT INTO kv (k, v) VALUES (?, ?)", int64(k), fmt.Sprintf("v%d", k%7))
		}
	}
	// run executes one traced batch and reports the server counters it
	// moved (a delta: the serial side's BEGIN/COMMIT are batches too).
	run := func(sd side, arrival time.Duration, stmts []Stmt) ([]*sqldb.ResultSet, time.Duration, ServerStats, []stmtSlot) {
		t.Helper()
		tr := obs.NewTracer()
		before := sd.srv.Stats()
		results, done, err := sd.conn.Exec(tr.Root("test", "page", "p", arrival), arrival, stmts)
		if err != nil {
			t.Fatalf("batch %v: %v", stmts, err)
		}
		st := sd.srv.Stats()
		delta := ServerStats{
			Queries:     st.Queries - before.Queries,
			Rows:        st.Rows - before.Rows,
			DBTime:      st.DBTime - before.DBTime,
			SnapBatches: st.SnapBatches - before.SnapBatches,
		}
		return results, done, delta, stmtLayout(t, tr)
	}

	rng := rand.New(rand.NewSource(1))
	for b := 1; b <= 250; b++ {
		stmts := make([]Stmt, 1+rng.Intn(12))
		for i := range stmts {
			stmts[i] = readShapes[rng.Intn(len(readShapes))](rng)
		}
		// Arrivals a second apart never queue, so completion times compare.
		arrival := time.Duration(b) * time.Second

		resA, doneA, stA, layA := run(snap, arrival, stmts)
		mustExec(t, serial.conn, "BEGIN")
		resB, doneB, stB, layB := run(serial, arrival, stmts)
		mustExec(t, serial.conn, "COMMIT")

		if stA.SnapBatches != 1 || stB.SnapBatches != 0 {
			t.Fatalf("batch %d: SnapBatches snapshot=%d serial=%d, want 1 and 0", b, stA.SnapBatches, stB.SnapBatches)
		}
		if !reflect.DeepEqual(resA, resB) {
			t.Fatalf("batch %d: results differ by executor\nsnapshot %v\nserial   %v", b, resA, resB)
		}
		if doneA != doneB || stA.DBTime != stB.DBTime || stA.Rows != stB.Rows || stA.Queries != stB.Queries {
			t.Fatalf("batch %d: pricing differs by executor: done %v/%v DBTime %v/%v Rows %d/%d Queries %d/%d",
				b, doneA, doneB, stA.DBTime, stB.DBTime, stA.Rows, stB.Rows, stA.Queries, stB.Queries)
		}
		if len(layA) != len(stmts) || !reflect.DeepEqual(layA, layB) {
			t.Fatalf("batch %d: traced layout differs by executor\nsnapshot %+v\nserial   %+v", b, layA, layB)
		}
	}
}

// TestTracingLeavesPlanCacheCountersAlone: a span context observes a batch,
// it must not change what the batch does to the plan cache. (The serial
// executor once named a SELECT's access path through a second Prepare, so a
// traced write-containing batch reported one extra hit per SELECT.)
func TestTracingLeavesPlanCacheCountersAlone(t *testing.T) {
	batches := [][]Stmt{
		{{SQL: "INSERT INTO kv (k, v) VALUES (10, 'ten')"}, {SQL: "SELECT v FROM kv WHERE k = 10"}},
		{{SQL: "SELECT v FROM kv WHERE k = 1"}, {SQL: "SELECT * FROM kv"}},
		{{SQL: "BEGIN"}, {SQL: "SELECT v FROM kv WHERE k = 2"}, {SQL: "UPDATE kv SET v = 'x' WHERE k = 2"}, {SQL: "COMMIT"}},
	}
	for i, stmts := range batches {
		_, srvU, connU := rig(t, 0)
		_, srvT, connT := rig(t, 0)
		if _, _, err := connU.Exec(obs.Ctx{}, 0, stmts); err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		if _, _, err := connT.Exec(tr.Root("test", "page", "p", 0), 0, stmts); err != nil {
			t.Fatal(err)
		}
		if got := len(stmtLayout(t, tr)); got != len(stmts) {
			t.Fatalf("batch %d: traced run recorded %d stmt spans, want %d", i, got, len(stmts))
		}
		if u, tc := srvU.DB().PlanCache().Stats(), srvT.DB().PlanCache().Stats(); u != tc {
			t.Errorf("batch %d: plan cache untraced %+v, traced %+v", i, u, tc)
		}
	}
}

// TestExecErrorContract pins what a failing batch leaves behind.
func TestExecErrorContract(t *testing.T) {
	count := func(t *testing.T, conn *Conn, k int64) int {
		t.Helper()
		return mustExec(t, conn, "SELECT k FROM kv WHERE k = ?", k).NumRows()
	}

	// A parse error at statement i surfaces as "driver: …" after statements
	// 0..i-1 have executed and before any later one does; nothing is
	// accounted for the failed batch.
	t.Run("parse error mid-batch after a landed write", func(t *testing.T) {
		_, srv, conn := rig(t, 0)
		_, err := conn.ExecBatch([]Stmt{
			{SQL: "INSERT INTO kv (k, v) VALUES (10, 'ten')"},
			{SQL: "SELEKT nonsense"},
			{SQL: "INSERT INTO kv (k, v) VALUES (11, 'eleven')"},
		})
		if err == nil || !strings.HasPrefix(err.Error(), "driver: ") {
			t.Fatalf("err = %v, want a driver: parse error", err)
		}
		if st := srv.Stats(); st.Batches != 0 || st.Queries != 0 || st.DBTime != 0 {
			t.Fatalf("failed batch was accounted: %+v", st)
		}
		if count(t, conn, 10) != 1 || count(t, conn, 11) != 0 {
			t.Fatal("want the write before the parse error landed and the one after it not executed")
		}
	})

	// Only an all-SELECT batch outside a transaction reaches the snapshot
	// executor, so a non-SELECT can never be handed to it: anything else —
	// including a batch that fails to parse, which reports the serial
	// executor's error — runs on the session.
	t.Run("classification", func(t *testing.T) {
		sel := Stmt{SQL: "SELECT v FROM kv WHERE k = 1"}
		for _, c := range []struct {
			name    string
			inTxn   bool
			stmts   []Stmt
			snap    int64
			wantErr string
		}{
			{"all reads", false, []Stmt{sel, sel}, 1, ""},
			{"reads in a transaction", true, []Stmt{sel, sel}, 0, ""},
			{"read then write", false, []Stmt{sel, {SQL: "UPDATE kv SET v = 'x' WHERE k = 1"}}, 0, ""},
			{"read then control", false, []Stmt{sel, {SQL: "COMMIT"}}, 0, ""},
			{"read then garbage", false, []Stmt{sel, {SQL: "SELEKT nonsense"}}, 0, "driver: "},
		} {
			_, srv, conn := rig(t, 0)
			if c.inTxn {
				mustExec(t, conn, "BEGIN")
			}
			_, err := conn.ExecBatch(c.stmts)
			if (c.wantErr == "") != (err == nil) || (err != nil && !strings.HasPrefix(err.Error(), c.wantErr)) {
				t.Errorf("%s: err = %v, want prefix %q", c.name, err, c.wantErr)
			}
			if got := srv.Stats().SnapBatches; got != c.snap {
				t.Errorf("%s: SnapBatches = %d, want %d", c.name, got, c.snap)
			}
		}
	})

	// A statement that fails on the snapshot executor returns the worker
	// slot: with one slot, the next read batch would otherwise block forever.
	t.Run("snapshot error returns the slot", func(t *testing.T) {
		_, srv, conn := rig(t, 0)
		srv.SetWorkers(1)
		_, err := conn.ExecBatch([]Stmt{
			{SQL: "SELECT v FROM kv WHERE k = 1"},
			{SQL: "SELECT * FROM no_such_table"},
		})
		if err == nil {
			t.Fatal("want an execution error from the unknown table")
		}
		if got := len(srv.slots); got != 1 {
			t.Fatalf("%d slot tokens in the pool after a failed snapshot batch, want 1", got)
		}
		if st := srv.Stats(); st.SnapBatches != 0 || st.Batches != 0 {
			t.Fatalf("failed batch was accounted: %+v", st)
		}
		if _, err := conn.ExecBatch([]Stmt{{SQL: "SELECT v FROM kv WHERE k = 2"}}); err != nil {
			t.Fatal(err)
		}
		if got := srv.Stats().SnapBatches; got != 1 {
			t.Fatalf("following batch: SnapBatches = %d, want 1", got)
		}
	})
}
