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
// snapshot executor (a DB worker's SnapSession.ExecSelectIn) and the serial
// executor (the server session's ExecPrepared) must agree, through the one
// pricing loop, on results, server time, rows visited and the traced
// per-statement layout: golden timelines cannot depend on which executor a
// batch gets.
func TestReadBatchCostMatchesSerialPath(t *testing.T) {
	_, srv, conn := rig(t, time.Millisecond)
	for k := 4; k <= 40; k++ {
		mustExec(t, conn, "INSERT INTO kv (k, v) VALUES (?, ?)", int64(k), fmt.Sprintf("v%d", k%7))
	}
	ss := srv.DB().BeginSnapshot()
	defer ss.Close()

	rng := rand.New(rand.NewSource(1))
	for b := 1; b <= 250; b++ {
		stmts := make([]Stmt, 1+rng.Intn(12))
		for i := range stmts {
			stmts[i] = readShapes[rng.Intn(len(readShapes))](rng)
		}
		resA, totalA, rowsA, layA, errA := srv.priceStmts(ss.ExecSelectIn, nil, stmts, true)
		resB, totalB, rowsB, layB, errB := srv.priceStmts(srv.sess.ExecPrepared, nil, stmts, true)
		if errA != nil || errB != nil {
			t.Fatalf("batch %d: snapshot err %v, serial err %v", b, errA, errB)
		}
		if !reflect.DeepEqual(resA, resB) {
			t.Fatalf("batch %d: results differ by executor\nsnapshot %v\nserial   %v", b, resA, resB)
		}
		if totalA != totalB || rowsA != rowsB {
			t.Fatalf("batch %d: pricing differs by executor: total %v/%v rows %d/%d", b, totalA, totalB, rowsA, rowsB)
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
		{{SQL: "SELECT v FROM kv WHERE k = 2"}, {SQL: "UPDATE kv SET v = 'x' WHERE k = 2"}},
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

	// Exactly the batches whose every statement parses to a SELECT reach
	// the snapshot executor, so a non-SELECT can never be handed to it:
	// anything else — including a batch that fails to parse, which reports
	// the serial executor's error — runs on the server's session.
	t.Run("classification", func(t *testing.T) {
		sel := Stmt{SQL: "SELECT v FROM kv WHERE k = 1"}
		for _, c := range []struct {
			name    string
			stmts   []Stmt
			snap    int64
			wantErr string
		}{
			{"all reads", []Stmt{sel, sel}, 1, ""},
			{"read then write", []Stmt{sel, {SQL: "UPDATE kv SET v = 'x' WHERE k = 1"}}, 0, ""},
			{"read then garbage", []Stmt{sel, {SQL: "SELEKT nonsense"}}, 0, "driver: "},
		} {
			_, srv, conn := rig(t, 0)
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
