package dispatch

import (
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/netsim"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
)

// rig builds a server with a seeded table and returns a connection factory
// so tests can open several sessions (each on its own clock) against the
// same database.
func rig(t *testing.T) (*driver.Server, func(rtt time.Duration) (*driver.Conn, *netsim.VirtualClock)) {
	t.Helper()
	db := engine.New()
	s := db.NewSession()
	for _, sql := range []string{
		"CREATE TABLE items (id INT PRIMARY KEY, name TEXT, qty INT)",
		"INSERT INTO items (id, name, qty) VALUES (1, 'apple', 5), (2, 'pear', 7), (3, 'fig', 2)",
	} {
		if _, err := s.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	srv := driver.NewServer(db, netsim.NewVirtualClock(), driver.DefaultCostModel())
	connect := func(rtt time.Duration) (*driver.Conn, *netsim.VirtualClock) {
		clock := netsim.NewVirtualClock()
		return srv.Connect(netsim.NewLink(clock, rtt)), clock
	}
	return srv, connect
}

func sel(id int64) driver.Stmt {
	return driver.Stmt{SQL: "SELECT id, name, qty FROM items WHERE id = ?", Args: []sqldb.Value{id}}
}

func mustWait(t *testing.T, d Dispatcher, tk *Ticket) []*sqldb.ResultSet {
	t.Helper()
	rs, _, err := d.Wait(tk)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestSyncAsyncSameResults runs the same batch through both strategies and
// requires identical rows per original statement.
func TestSyncAsyncSameResults(t *testing.T) {
	_, connect := rig(t)
	stmts := []driver.Stmt{sel(1), sel(2), {SQL: "SELECT name FROM items WHERE qty > ?", Args: []sqldb.Value{int64(3)}}}

	connS, _ := connect(time.Millisecond)
	syncD := NewSync(connS)
	want := mustWait(t, syncD, syncD.Submit(stmts))

	connA, _ := connect(time.Millisecond)
	asyncD := NewAsync(connA)
	defer asyncD.Close()
	got := mustWait(t, asyncD, asyncD.Submit(stmts))

	if len(want) != len(got) {
		t.Fatalf("result counts differ: %d vs %d", len(want), len(got))
	}
	for i := range want {
		if want[i].String() != got[i].String() {
			t.Fatalf("stmt %d differs:\n%s\nvs\n%s", i, want[i], got[i])
		}
	}
}

// TestAsyncOverlapsCompute pins the virtual-time contract: compute charged
// between Submit and Wait is overlapped with batch execution, so Wait pays
// only the residual — and pays the full cost when there is no compute.
func TestAsyncOverlapsCompute(t *testing.T) {
	_, connect := rig(t)

	// No compute between submit and wait: the wait pays the full cost,
	// exactly like the synchronous strategy on an identical connection.
	connA, clockA := connect(time.Millisecond)
	a := NewAsync(connA)
	defer a.Close()
	mustWait(t, a, a.Submit([]driver.Stmt{sel(1)}))
	full := clockA.Now()
	if full <= time.Millisecond {
		t.Fatalf("full wait %v, want > link rtt", full)
	}

	connB, clockB := connect(time.Millisecond)
	b := NewAsync(connB)
	defer b.Close()
	tk := b.Submit([]driver.Stmt{sel(1)})
	clockB.Advance(50 * time.Millisecond) // app compute while the batch flies
	mustWait(t, b, tk)
	if got := clockB.Now(); got != 50*time.Millisecond {
		t.Fatalf("wait after overlapping compute advanced clock to %v, want 50ms", got)
	}
	if b.Stats().OverlapSaved <= 0 {
		t.Fatal("no overlap recorded")
	}
}

// TestSharedCoalescesAcrossSessions: identical lookups from two sessions
// execute once at the server and both sessions read correct rows.
func TestSharedCoalescesAcrossSessions(t *testing.T) {
	srv, connect := rig(t)
	hubConn, _ := connect(time.Millisecond)
	hub := NewHub(hubConn)

	conn1, _ := connect(time.Millisecond)
	conn2, _ := connect(time.Millisecond)
	d1 := NewShared(hub, conn1)
	d2 := NewShared(hub, conn2)

	before := srv.Stats().Queries
	t1 := d1.Submit([]driver.Stmt{sel(1), sel(2)})
	t2 := d2.Submit([]driver.Stmt{sel(2), sel(1)})

	rs1 := mustWait(t, d1, t1)
	rs2 := mustWait(t, d2, t2)
	if rs1[0].Rows[0][1] != "apple" || rs1[1].Rows[0][1] != "pear" {
		t.Fatalf("session 1 rows: %v %v", rs1[0].Rows, rs1[1].Rows)
	}
	if rs2[0].Rows[0][1] != "pear" || rs2[1].Rows[0][1] != "apple" {
		t.Fatalf("session 2 rows: %v %v", rs2[0].Rows, rs2[1].Rows)
	}
	if got := srv.Stats().Queries - before; got != 2 {
		t.Fatalf("server executed %d statements, want 2 (coalesced window)", got)
	}
	if hub.Stats().Coalesced != 2 {
		t.Fatalf("coalesced = %d, want 2", hub.Stats().Coalesced)
	}
	_, bs2, _ := d2.Wait(t2) // waitable again: already-done ticket
	if bs2.Sent != 0 {
		t.Fatalf("session 2 sent %d statements, want 0 (both answered by session 1's)", bs2.Sent)
	}
}

// TestSharedWriteBarrier: a session's window reads registered before its
// write must observe pre-write state, and a read after the write must
// observe the new value.
func TestSharedWriteBarrier(t *testing.T) {
	_, connect := rig(t)
	hubConn, _ := connect(0)
	hub := NewHub(hubConn)
	conn, _ := connect(0)
	d := NewShared(hub, conn)

	readT := d.Submit([]driver.Stmt{{SQL: "SELECT qty FROM items WHERE id = 1"}})
	writeT := d.Submit([]driver.Stmt{{SQL: "UPDATE items SET qty = 99 WHERE id = 1"}})
	afterT := d.Submit([]driver.Stmt{{SQL: "SELECT qty FROM items WHERE id = 1"}})

	if rs := mustWait(t, d, readT); rs[0].Rows[0][0] != int64(5) {
		t.Fatalf("pre-write read saw %v, want 5", rs[0].Rows[0][0])
	}
	if rs := mustWait(t, d, writeT); rs[0].RowsAffected != 1 {
		t.Fatalf("write affected %d rows", rs[0].RowsAffected)
	}
	if rs := mustWait(t, d, afterT); rs[0].Rows[0][0] != int64(99) {
		t.Fatalf("post-write read saw %v, want 99", rs[0].Rows[0][0])
	}
}

// TestSharedQuorumClosesWindow: with an expected batch count, the quorum
// submitter closes the window without any demand.
func TestSharedQuorumClosesWindow(t *testing.T) {
	srv, connect := rig(t)
	hubConn, _ := connect(0)
	hub := NewHub(hubConn)
	hub.SetWindow(2)
	conn1, _ := connect(0)
	conn2, _ := connect(0)
	d1 := NewShared(hub, conn1)
	d2 := NewShared(hub, conn2)

	before := srv.Stats().Queries
	t1 := d1.Submit([]driver.Stmt{sel(3)})
	select {
	case <-t1.done:
		t.Fatal("window closed before quorum")
	default:
	}
	t2 := d2.Submit([]driver.Stmt{sel(3)}) // quorum: closes inline
	select {
	case <-t2.done:
	default:
		t.Fatal("quorum did not close the window")
	}
	mustWait(t, d1, t1)
	mustWait(t, d2, t2)
	if got := srv.Stats().Queries - before; got != 1 {
		t.Fatalf("server executed %d statements, want 1", got)
	}
}

// TestMergeStageThroughDispatchers: the merge stage coalesces a 1+N family
// under every strategy: the ticket reports the one statement sent, and the
// merger counts what it saved.
func TestMergeStageThroughDispatchers(t *testing.T) {
	family := []driver.Stmt{sel(1), sel(2), sel(3)}
	for _, mk := range []struct {
		name  string
		build func(conn *driver.Conn, stages ...Stage) *Local
	}{
		{"sync", NewSync},
		{"async", NewAsync},
	} {
		_, connect := rig(t)
		conn, _ := connect(0)
		m := merge.New(merge.Config{Enabled: true})
		d := mk.build(conn, MergeStage(m))
		tk := d.Submit(family)
		rs, bs, err := d.Wait(tk)
		if err != nil {
			t.Fatalf("%s: %v", mk.name, err)
		}
		if len(rs) != 3 {
			t.Fatalf("%s: %d results", mk.name, len(rs))
		}
		for i, want := range []string{"apple", "pear", "fig"} {
			if rs[i].Rows[0][1] != want {
				t.Fatalf("%s: stmt %d row %v, want %s", mk.name, i, rs[i].Rows, want)
			}
		}
		if ms := m.Stats(); bs.Sent != 1 || ms.Saved != 2 || ms.Groups != 1 {
			t.Fatalf("%s: batch stats %+v, merge stats %+v, want Sent 1 Saved 2 Groups 1", mk.name, bs, ms)
		}
		d.Close()
	}
}

// TestAsyncErrorDeferredToWait: a failing batch reports its error at Wait,
// not at Submit.
func TestAsyncErrorDeferredToWait(t *testing.T) {
	_, connect := rig(t)
	conn, _ := connect(0)
	a := NewAsync(conn)
	defer a.Close()
	tk := a.Submit([]driver.Stmt{{SQL: "SELECT * FROM no_such_table"}})
	if _, _, err := a.Wait(tk); err == nil {
		t.Fatal("missing execution error at Wait")
	}
}

// TestSharedWindowAttributesMergeStats: when the hub's merge stage coalesces
// a cross-session family, the hub's own merger counts the window-level
// savings once, and each ticket reports only the statements it introduced.
func TestSharedWindowAttributesMergeStats(t *testing.T) {
	_, connect := rig(t)
	hubConn, _ := connect(0)
	m := merge.New(merge.Config{Enabled: true})
	hub := NewHub(hubConn, MergeStage(m))
	conn1, _ := connect(0)
	conn2, _ := connect(0)
	d1 := NewShared(hub, conn1)
	d2 := NewShared(hub, conn2)

	// Two sessions contribute distinct members of one equality family:
	// the combined window merges 3 of its 4 statements into 1.
	t1 := d1.Submit([]driver.Stmt{sel(1), sel(2)})
	t2 := d2.Submit([]driver.Stmt{sel(3), {SQL: "SELECT id, name, qty FROM items WHERE qty > ?", Args: []sqldb.Value{int64(100)}}})
	_, bs1, _ := d1.Wait(t1)
	_, bs2, _ := d2.Wait(t2)

	if ms := m.Stats(); ms.Batches != 1 || ms.Saved != 2 || ms.Groups != 1 || ms.SavedByFamily[merge.FamilyEquality] != 2 {
		t.Fatalf("hub merge stats %+v, want one batch, saved 2 (equality), groups 1", ms)
	}
	if hs := hub.Stats(); hs.Windows != 1 || hs.StmtsOut != 2 {
		t.Fatalf("hub stats %+v, want one window sending 2 statements", hs)
	}
	if bs1.Sent != 2 || bs2.Sent != 2 {
		t.Fatalf("tickets sent %d and %d, want the 2 each introduced", bs1.Sent, bs2.Sent)
	}
}

// TestSharedWindowErrorAccounting pins the error-path consistency fix: a
// failing window still counts its attempt (Windows, StmtsOut) and counts
// the failure in Errors, and every contributing session observes the
// error.
func TestSharedWindowErrorAccounting(t *testing.T) {
	_, connect := rig(t)
	hubConn, _ := connect(0)
	hub := NewHub(hubConn)
	conn1, _ := connect(0)
	conn2, _ := connect(0)
	d1 := NewShared(hub, conn1)
	d2 := NewShared(hub, conn2)

	t1 := d1.Submit([]driver.Stmt{sel(1)})
	t2 := d2.Submit([]driver.Stmt{{SQL: "SELECT * FROM no_such_table"}})
	hub.CloseWindow()

	if _, _, err := d1.Wait(t1); err == nil {
		t.Fatal("session 1 did not observe the window error")
	}
	if _, _, err := d2.Wait(t2); err == nil {
		t.Fatal("session 2 did not observe the window error")
	}
	hs := hub.Stats()
	if hs.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", hs.Errors)
	}
	if hs.Windows != 1 {
		t.Fatalf("Windows = %d, want 1 (attempts count on the error path)", hs.Windows)
	}
	if hs.StmtsOut != 2 {
		t.Fatalf("StmtsOut = %d, want 2 (attempted statements count on the error path)", hs.StmtsOut)
	}
}

// TestSharedExtraSessionBeyondQuorum: a front end registered past the
// SetWindow quorum must not resurrect closed generations — its batches
// join the lowest open generation, and CloseWindow drains everything
// without spinning.
func TestSharedExtraSessionBeyondQuorum(t *testing.T) {
	srv, connect := rig(t)
	hubConn, _ := connect(0)
	hub := NewHub(hubConn)
	hub.SetWindow(2)
	conns := make([]*Shared, 3)
	for i := range conns {
		c, _ := connect(0)
		conns[i] = NewShared(hub, c)
	}

	t1 := conns[0].Submit([]driver.Stmt{sel(1)})
	t2 := conns[1].Submit([]driver.Stmt{sel(1)}) // quorum: generation 0 closes
	mustWait(t, conns[0], t1)
	mustWait(t, conns[1], t2)

	before := srv.Stats().Queries
	t3 := conns[2].Submit([]driver.Stmt{sel(2)}) // would be gen 0, clamps to gen 1
	done := make(chan struct{})
	go func() {
		hub.CloseWindow() // must terminate, not scan ints forever
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("CloseWindow did not terminate with an entry below nextClose")
	}
	if rs := mustWait(t, conns[2], t3); rs[0].Rows[0][1] != "pear" {
		t.Fatalf("extra session rows: %v", rs[0].Rows)
	}
	if got := srv.Stats().Queries - before; got != 1 {
		t.Fatalf("drain executed %d statements, want 1", got)
	}
}

// TestSharedPoisonReleasesParkedWaiter: dropping the quorum (SetWindow(0))
// and draining releases a session parked on a generation that will never
// fill — the escape hatch the throughput harness uses when a session dies
// mid-round.
func TestSharedPoisonReleasesParkedWaiter(t *testing.T) {
	_, connect := rig(t)
	hubConn, _ := connect(0)
	hub := NewHub(hubConn)
	hub.SetWindow(2)
	conn1, _ := connect(0)
	d1 := NewShared(hub, conn1)

	tk := d1.Submit([]driver.Stmt{sel(3)})
	released := make(chan struct{})
	go func() {
		mustWait(t, d1, tk) // parks: the second session never arrives
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("waiter returned before the quorum or a drain")
	case <-time.After(10 * time.Millisecond):
	}
	hub.SetWindow(0)
	hub.CloseWindow()
	select {
	case <-released:
	case <-time.After(10 * time.Second):
		t.Fatal("poisoned hub did not release the parked waiter")
	}
}

// TestAsyncExecutesAtSubmit pins where and when a deferred batch runs: on
// the session goroutine, inside Submit, priced at the session's virtual
// time without moving it. Forty batches go out before the first Wait,
// alternating a write and a read of the row it wrote; each has reached the
// server when Submit returns, each read sees the write before it, and the
// session clock stays put until Wait, which then pays exactly the
// completion time not yet overlapped. PeakQueue counts the forty tickets
// outstanding at once.
func TestAsyncExecutesAtSubmit(t *testing.T) {
	srv, connect := rig(t)
	conn, clock := connect(time.Millisecond)
	a := NewAsync(conn)

	const n = 40
	tickets := make([]*Ticket, n)
	for k := range tickets {
		stmts := []driver.Stmt{sel(1)}
		if k%2 == 0 {
			stmts = []driver.Stmt{{SQL: "UPDATE items SET qty = ? WHERE id = 1", Args: []sqldb.Value{int64(100 + k)}}}
		}
		before := srv.Stats().Queries
		tickets[k] = a.Submit(stmts)
		if got := srv.Stats().Queries - before; got != 1 {
			t.Fatalf("ticket %d: Submit returned with %d statements executed, want 1", k, got)
		}
		if now := clock.Now(); now != 0 {
			t.Fatalf("ticket %d: Submit moved the session clock to %v", k, now)
		}
	}
	if st := a.Stats(); st.PeakQueue != n {
		t.Fatalf("PeakQueue = %d with %d tickets outstanding", st.PeakQueue, n)
	}

	// Compute between the last Submit and the first Wait hides the batches
	// that complete before it ends; the rest are paid in order.
	compute := tickets[n/2].completeAt
	clock.Advance(compute)
	var hidden time.Duration
	for k, tk := range tickets {
		before := clock.Now()
		rs := mustWait(t, a, tk)
		paid := max(0, tk.completeAt-before)
		if now := clock.Now(); now != before+paid {
			t.Fatalf("ticket %d: Wait moved the clock %v -> %v, want %v", k, before, now, before+paid)
		}
		hidden += tk.completeAt - paid
		if k%2 == 1 && rs[0].Rows[0][2] != int64(100+k-1) {
			t.Fatalf("ticket %d read qty %v, want the write of ticket %d (%d)", k, rs[0].Rows[0][2], k-1, 100+k-1)
		}
	}
	last := tickets[n-1].completeAt
	if last <= compute || clock.Now() != last {
		t.Fatalf("session ended at %v, want the last completion %v (after compute %v)", clock.Now(), last, compute)
	}
	st := a.Stats()
	if st.OverlapSaved != hidden {
		t.Fatalf("OverlapSaved = %v, want the hidden time %v", st.OverlapSaved, hidden)
	}
	if st.PeakQueue != n || st.Submitted != n {
		t.Fatalf("stats after the waits: %+v", st)
	}
	s := NewSync(conn)
	mustWait(t, s, s.Submit([]driver.Stmt{sel(1)}))
	if peak := s.Stats().PeakQueue; peak != 0 {
		t.Fatalf("sync PeakQueue = %d, want 0", peak)
	}
}
