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
// the batch fails with the typed, retriable outage fault.
func TestRetryExhaustionIsTerminal(t *testing.T) {
	srv, connect := rig(t)
	srv.SetFaults(faults.NewPlane(faults.Config{
		Outages: []faults.Outage{{Shard: 0, From: 0, To: 50 * time.Millisecond}},
	}))
	conn, _ := connect(time.Millisecond)
	d := NewSync(conn)
	d.SetRetry(RetryPolicy{MaxAttempts: 2})
	_, _, err := d.Wait(d.Submit([]driver.Stmt{sel(1)}))
	var fe *faults.Error
	if !errors.As(err, &fe) || fe.Kind != "outage" || !faults.Retriable(err) {
		t.Fatalf("err = %v", err)
	}
	st := d.Stats()
	if st.Errors != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v, want 1 error, 1 retry", st)
	}
}

// TestSyncTicketReuse: a synchronous dispatcher hands out one ticket, and
// each Submit makes it the next batch's alone. Three batches — a merged read
// family whose retries run out inside an outage, a write, then a clean read
// — each return their own results, batch stats, error, arrival and
// completion time, none of them left over from the batch before.
func TestSyncTicketReuse(t *testing.T) {
	srv, connect := rig(t)
	srv.SetFaults(faults.NewPlane(faults.Config{
		Outages: []faults.Outage{{Shard: 0, From: 0, To: time.Second}},
	}))
	conn, clock := connect(time.Millisecond)
	m := merge.New(merge.Config{Enabled: true})
	d := NewSync(conn, MergeStage(m))
	d.SetRetry(retryPolicy())

	var first *Ticket
	submit := func(step string, stmts ...driver.Stmt) ([]*sqldb.ResultSet, BatchStats, error) {
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
		if err == nil && len(rs) != len(stmts) {
			t.Fatalf("%s: %d results for %d statements", step, len(rs), len(stmts))
		}
		return rs, bs, err
	}

	rs, bs, err := submit("read", sel(1), sel(2), sel(3))
	if fe := (*faults.Error)(nil); !errors.As(err, &fe) || fe.Kind != "outage" || rs != nil {
		t.Fatalf("read: results %v, err %v, want the outage", rs, err)
	}
	if bs != (BatchStats{Sent: 1}) {
		t.Fatalf("read: batch stats %+v, want the merged family's", bs)
	}

	srv.SetFaults(nil)
	rs, bs, err = submit("write", prep("UPDATE items SET qty = ? WHERE id = ?", int64(40), int64(3)))
	if err != nil || rs[0].RowsAffected != 1 || len(rs[0].Rows) != 0 {
		t.Fatalf("write: err %v, result %+v", err, rs)
	}
	if bs != (BatchStats{Sent: 1}) {
		t.Fatalf("write: batch stats %+v", bs)
	}

	rs, bs, err = submit("read again", sel(3))
	if err != nil || rs[0].Rows[0][2] != int64(40) {
		t.Fatalf("read again: err %v, rows %v", err, rs)
	}
	if bs != (BatchStats{Sent: 1}) {
		t.Fatalf("read again: batch stats %+v", bs)
	}

	st := d.Stats()
	if st.StmtsIn != 5 || st.StmtsOut != 3 || st.Retries != 7 || st.Errors != 1 || st.PeakQueue != 0 {
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
	tk := d.Submit([]driver.Stmt{prep("UPDATE items SET qty = qty + 1 WHERE id = ?", int64(1))})
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
