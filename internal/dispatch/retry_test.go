package dispatch

import (
	"errors"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/faults"
	"repro/internal/merge"
	"repro/internal/sqldb"
)

// retryPolicy is the test recovery policy: enough attempts to walk out of
// the rig's fault windows.
func retryPolicy() RetryPolicy { return RetryPolicy{MaxAttempts: 8} }

// TestBackoffCapped pins the capped-exponential schedule.
func TestBackoffCapped(t *testing.T) {
	want := []time.Duration{100, 200, 400, 800, 1600, 2000, 2000}
	for i, w := range want {
		if got := backoffAfter(i + 1); got != w*time.Microsecond {
			t.Fatalf("backoffAfter(%d) = %v, want %v", i+1, got, w*time.Microsecond)
		}
	}
}

// TestSyncRetryRecovers: a batch arriving inside an outage window retries on
// backed-off virtual time until the window clears, succeeds, and counts in
// Retries — never Errors.
func TestSyncRetryRecovers(t *testing.T) {
	srv, connect := rig(t)
	srv.SetFaults(faults.NewPlane(faults.Config{
		Outages: []faults.Outage{{Shard: 0, From: 0, To: 3 * time.Millisecond}},
	}))
	conn, clock := connect(time.Millisecond)
	d := NewSync(conn)
	d.SetRetry(retryPolicy())
	rs := mustWait(t, d, d.Submit([]driver.Stmt{sel(1)}))
	if rs[0].Rows[0][1] != "apple" {
		t.Fatalf("rows = %v", rs[0].Rows)
	}
	st := d.Stats()
	if st.Retries == 0 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want retries > 0 and no errors", st)
	}
	if clock.Now() < 3*time.Millisecond {
		t.Fatalf("clock = %v, want walked past the outage window", clock.Now())
	}
}

// TestRetryExhaustionIsTerminal: with too few attempts to clear the window
// the batch fails with a typed, Is-able transient error.
func TestRetryExhaustionIsTerminal(t *testing.T) {
	srv, connect := rig(t)
	srv.SetFaults(faults.NewPlane(faults.Config{
		Outages: []faults.Outage{{Shard: 0, From: 0, To: 50 * time.Millisecond}},
	}))
	conn, _ := connect(time.Millisecond)
	d := NewSync(conn)
	d.SetRetry(RetryPolicy{MaxAttempts: 2})
	_, _, err := d.Wait(d.Submit([]driver.Stmt{sel(1)}))
	if !errors.Is(err, faults.ErrTransient) {
		t.Fatalf("err = %v", err)
	}
	st := d.Stats()
	if st.Errors != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v, want 1 error, 1 retry", st)
	}
}

// TestDegradationIsolatesPoison: a poisoned key inside a merged batch fails
// only its own statement; the siblings degrade to per-statement execution
// and still return rows. This is the merged-family degradation path.
func TestDegradationIsolatesPoison(t *testing.T) {
	srv, connect := rig(t)
	srv.SetFaults(faults.NewPlane(faults.Config{PoisonArgs: []sqldb.Value{int64(2)}}))
	conn, _ := connect(time.Millisecond)
	d := NewSync(conn, MergeStage(merge.New(merge.Config{Enabled: true})))
	d.SetRetry(retryPolicy())
	tk := d.Submit([]driver.Stmt{sel(1), sel(2), sel(3)})
	rs, _, err := d.Wait(tk)
	if err != nil {
		t.Fatalf("degraded batch returned terminal error: %v", err)
	}
	se := tk.StmtErrs()
	if se == nil {
		t.Fatalf("no per-statement errors recorded")
	}
	if se[0] != nil || se[2] != nil || !errors.Is(se[1], faults.ErrPermanent) {
		t.Fatalf("stmtErrs = %v", se)
	}
	if rs[0].Rows[0][1] != "apple" || rs[2].Rows[0][1] != "fig" {
		t.Fatalf("sibling results lost: %v", rs)
	}
	if rs[1] != nil {
		t.Fatalf("poisoned statement has a result: %v", rs[1])
	}
	st := d.Stats()
	if st.Degraded != 1 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want degraded 1, errors 0", st)
	}
}

// TestSyncTicketReuse: a synchronous dispatcher hands out one ticket, and
// each Submit makes it the next batch's alone. Three batches — a merged read
// family that degrades around a poisoned key, a write, then a clean read —
// each return their own results, batch stats, per-statement errors, arrival
// and completion time, none of them left over from the batch before.
func TestSyncTicketReuse(t *testing.T) {
	srv, connect := rig(t)
	srv.SetFaults(faults.NewPlane(faults.Config{PoisonArgs: []sqldb.Value{int64(2)}}))
	conn, clock := connect(time.Millisecond)
	m := merge.New(merge.Config{Enabled: true})
	d := NewSync(conn, MergeStage(m))
	d.SetRetry(retryPolicy())

	var first *Ticket
	submit := func(step string, stmts ...driver.Stmt) (*Ticket, []*sqldb.ResultSet, BatchStats) {
		t.Helper()
		before := clock.Now()
		tk := d.Submit(stmts)
		if first == nil {
			first = tk
		} else if tk != first {
			t.Fatalf("%s: Submit returned a new ticket", step)
		}
		if tk.arrival != before || tk.completeAt <= before || clock.Now() != tk.completeAt {
			t.Fatalf("%s: arrival %v, completion %v, clock %v -> %v", step, tk.arrival, tk.completeAt, before, clock.Now())
		}
		rs, bs, err := d.Wait(tk)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if len(rs) != len(stmts) {
			t.Fatalf("%s: %d results for %d statements", step, len(rs), len(stmts))
		}
		return tk, rs, bs
	}

	tk, rs, bs := submit("read", sel(1), sel(2), sel(3))
	if se := tk.StmtErrs(); se == nil || se[0] != nil || !errors.Is(se[1], faults.ErrPermanent) || se[2] != nil {
		t.Fatalf("read: stmtErrs = %v", se)
	}
	if rs[0].Rows[0][1] != "apple" || rs[1] != nil || rs[2].Rows[0][1] != "fig" {
		t.Fatalf("read: results %v", rs)
	}
	if bs != (BatchStats{Sent: 1}) {
		t.Fatalf("read: batch stats %+v, want the merged family's", bs)
	}

	tk, rs, bs = submit("write", driver.Stmt{SQL: "UPDATE items SET qty = ? WHERE id = ?", Args: []sqldb.Value{int64(40), int64(3)}})
	if tk.StmtErrs() != nil || rs[0].RowsAffected != 1 || len(rs[0].Rows) != 0 {
		t.Fatalf("write: stmtErrs %v, result %+v", tk.StmtErrs(), rs[0])
	}
	if bs != (BatchStats{Sent: 1}) {
		t.Fatalf("write: batch stats %+v", bs)
	}

	tk, rs, bs = submit("read again", sel(3))
	if tk.StmtErrs() != nil || rs[0].Rows[0][2] != int64(40) {
		t.Fatalf("read again: stmtErrs %v, rows %v", tk.StmtErrs(), rs[0].Rows)
	}
	if bs != (BatchStats{Sent: 1}) {
		t.Fatalf("read again: batch stats %+v", bs)
	}

	st := d.Stats()
	if st.Submitted != 3 || st.StmtsIn != 5 || st.StmtsOut != 3 || st.Degraded != 1 || st.Errors != 0 || st.PeakQueue != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if ms := m.Stats(); ms.Batches != 3 || ms.Saved != 2 || ms.Groups != 1 {
		t.Fatalf("merge stats = %+v, want the one merged family's", ms)
	}
}

// TestAsyncWriteRetryExactlyOnce: a pipelined write that retries through an
// outage executes its data effect exactly once (injected failures fire
// pre-execution, so only the final successful attempt lands).
func TestAsyncWriteRetryExactlyOnce(t *testing.T) {
	srv, connect := rig(t)
	srv.SetFaults(faults.NewPlane(faults.Config{
		Outages: []faults.Outage{{Shard: 0, From: 0, To: 2 * time.Millisecond}},
	}))
	conn, _ := connect(time.Millisecond)
	d := NewAsync(conn)
	defer d.Close()
	d.SetRetry(retryPolicy())
	tk := d.Submit([]driver.Stmt{{SQL: "UPDATE items SET qty = qty + 1 WHERE id = ?", Args: []sqldb.Value{int64(1)}}})
	if _, _, err := d.Wait(tk); err != nil {
		t.Fatalf("write failed: %v", err)
	}
	if st := d.Stats(); st.Retries == 0 {
		t.Fatalf("write did not retry: %+v", st)
	}
	srv.SetFaults(nil)
	rs := mustWait(t, d, d.Submit([]driver.Stmt{sel(1)}))
	if rs[0].Rows[0][2] != int64(6) {
		t.Fatalf("qty = %v, want exactly one increment (6)", rs[0].Rows[0][2])
	}
}
