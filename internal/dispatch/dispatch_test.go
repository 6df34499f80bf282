package dispatch

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/merge"
	"repro/internal/netsim"
	"repro/internal/obs"
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

// prep prepares a statement as the query store's Register does.
func prep(sql string, args ...sqldb.Value) driver.Stmt {
	st, err := driver.Prepare(sql, args...)
	if err != nil {
		panic(err)
	}
	return st
}

func sel(id int64) driver.Stmt {
	return prep("SELECT id, name, qty FROM items WHERE id = ?", id)
}

func mustWait(t *testing.T, d Dispatcher, tk *Ticket) []*sqldb.ResultSet {
	t.Helper()
	rs, _, err := d.Wait(tk)
	if err != nil {
		t.Fatal(err)
	}
	return rs
}

// TestParseKind: the flag surface names exactly the two strategies.
func TestParseKind(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Kind
		ok   bool
	}{
		{"", KindSync, true},
		{"sync", KindSync, true},
		{"async", KindAsync, true},
		{"shared", KindSync, false},
		{"bogus", KindSync, false},
	} {
		if got, ok := ParseKind(c.in); got != c.want || ok != c.ok {
			t.Errorf("ParseKind(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
		if c.ok && c.in != "" && c.want.String() != c.in {
			t.Errorf("%v.String() = %q, want %q", c.want, c.want.String(), c.in)
		}
	}
}

// TestSyncAsyncSameResults runs the same batch through both strategies and
// requires identical rows per original statement.
func TestSyncAsyncSameResults(t *testing.T) {
	_, connect := rig(t)
	stmts := []driver.Stmt{sel(1), sel(2), prep("SELECT name FROM items WHERE qty > ?", int64(3))}

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
	tk := a.Submit([]driver.Stmt{prep("SELECT * FROM no_such_table")})
	if _, _, err := a.Wait(tk); err == nil {
		t.Fatal("missing execution error at Wait")
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
			stmts = []driver.Stmt{prep("UPDATE items SET qty = ? WHERE id = 1", int64(100+k))}
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
	if st.PeakQueue != n || st.StmtsIn != n {
		t.Fatalf("stats after the waits: %+v", st)
	}
	s := NewSync(conn)
	mustWait(t, s, s.Submit([]driver.Stmt{sel(1)}))
	if peak := s.Stats().PeakQueue; peak != 0 {
		t.Fatalf("sync PeakQueue = %d, want 0", peak)
	}
}

// TestAtMostOneStage: a dispatcher runs one stage or none, and asking for
// more panics naming the limit; a pass-through batch through the lone merge
// stage allocates nothing.
func TestAtMostOneStage(t *testing.T) {
	_, connect := rig(t)
	conn, _ := connect(0)
	stage := MergeStage(merge.New(merge.Config{Enabled: true}))
	for _, mk := range []struct {
		name  string
		build func(conn *driver.Conn, stages ...Stage) *Local
	}{
		{"sync", NewSync},
		{"async", NewAsync},
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "at most one") {
					t.Errorf("%s with two stages: recovered %q, want a panic naming the limit", mk.name, msg)
				}
			}()
			mk.build(conn, stage, stage)
		}()
	}
	stmts := []driver.Stmt{sel(1)}
	if got := testing.AllocsPerRun(100, func() { applyStage(obs.Ctx{}, 0, stage, stmts) }); got != 0 && !raceEnabled {
		t.Errorf("a pass-through batch through a lone merge stage allocates %v times", got)
	}
}
