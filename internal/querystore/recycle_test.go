package querystore

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/driver"
)

// These tests pin what Close gives back: the queue array, dedup table and
// results index go to the next store to open, each exactly once, the
// connection's results are released with the request, and nothing a caller
// can still read — a result set it held, a later registration on the closed
// store — sees another store's statements.

// TestClosePoolsScratchOnce: closing a store twice hands its scratch to the
// pool once, so two stores opened afterwards never share a queue array; and
// a hook registered with OnClose runs once, in registration order.
func TestClosePoolsScratchOnce(t *testing.T) {
	s, _ := rig(t, Config{})
	var ran []int
	s.OnClose(func() { ran = append(ran, 1) })
	s.OnClose(func() { ran = append(ran, 2) })
	if _, err := s.Exec("SELECT name FROM items WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close()
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 2 {
		t.Fatalf("hooks ran %v, want [1 2]", ran)
	}
	a, _ := rig(t, Config{})
	b, _ := rig(t, Config{})
	for _, st := range []*Store{a, b} {
		if _, err := st.Register("SELECT name FROM items WHERE id = 2"); err != nil {
			t.Fatal(err)
		}
	}
	if &a.queue[0] == &b.queue[0] {
		t.Fatal("two open stores register into one queue array")
	}
}

// TestStoreAfterCloseStartsFresh: Close discards the pending statements
// with the scratch that held them; a result forced before it is released —
// its id unknown, the result set the caller held cleared; the store that
// takes the scratch next sees none of the old statements; and the closed
// store registers and flushes on fresh storage.
func TestStoreAfterCloseStartsFresh(t *testing.T) {
	var batches [][]driver.Stmt
	record := func(stmts []driver.Stmt) { batches = append(batches, stmts) }
	s, _ := rig(t, Config{Record: record})
	// A request before this one sizes the connection's arena, so the forced
	// result below comes from its slab.
	warm := New(s.Conn(), Config{})
	if _, err := warm.Exec("SELECT name FROM items WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	forced, _ := s.Register("SELECT name FROM items WHERE id = 1")
	rs, err := s.ResultSet(forced)
	if err != nil || rs.Rows[0][0] != "apple" {
		t.Fatalf("forced: %v, %v", rs, err)
	}
	pending, _ := s.Register("SELECT name FROM items WHERE id = 2")
	s.Register("SELECT qty FROM items WHERE id = 2")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.queue != nil || s.held != nil || s.results != nil {
		t.Fatal("a closed store keeps its scratch")
	}
	if rs.Rows != nil || rs.Cols != nil {
		t.Fatalf("a result forced before Close still reads %v", rs)
	}
	if got, err := s.ResultSet(forced); !errors.Is(err, ErrUnknownQueryID) {
		t.Fatalf("a result forced before Close: %v, %v, want ErrUnknownQueryID", got, err)
	}

	next, _ := rig(t, Config{Record: record})
	if _, err := next.Exec("SELECT name FROM items WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	for i, st := range next.queue[1:cap(next.queue)] {
		if st.SQL != "" || st.Args != nil || st.Parsed != nil {
			t.Fatalf("borrowed queue slot %d still holds %q %v", i+1, st.SQL, st.Args)
		}
	}

	again, err := s.Exec("SELECT name FROM items WHERE id = 2")
	if err != nil || again.Rows[0][0] != "pear" {
		t.Fatalf("a registration after Close: %v, %v", again, err)
	}
	if got, err := s.ResultSet(forced); !errors.Is(err, ErrUnknownQueryID) {
		t.Fatalf("a result forced before Close, after a later request: %v, %v", got, err)
	}
	if _, err := s.ResultSet(pending); !errors.Is(err, ErrUnknownQueryID) {
		t.Fatalf("a statement pending at Close: %v, want ErrUnknownQueryID", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Three batches of one statement each: nothing crossed from one store to
	// the other or survived the Close it was pending at.
	want := []string{"id = 1", "id = 3", "id = 2"}
	if len(batches) != len(want) {
		t.Fatalf("%d batches ran, want %d", len(batches), len(want))
	}
	for i, b := range batches {
		if len(b) != 1 || !strings.HasSuffix(b[0].SQL, want[i]) {
			t.Fatalf("batch %d = %v, want the one statement for %s", i, b, want[i])
		}
	}
}

// TestRequestCycleAllocatesNoResultStorage: once warm, a per-request cycle
// on one connection — a store opened, k reads registered, forced in one
// batch, the store closed — allocates the same at k = 8 as at k = 32. No
// result slot, row-pointer slice, batch list or results index is allocated
// per statement: each comes from storage an earlier request grew, given
// back at Close.
func TestRequestCycleAllocatesNoResultStorage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop at random")
	}
	s, _ := rig(t, Config{})
	conn := s.Conn()
	// No match, one row, and up to three rows: every shape of result.
	var texts [32]string
	for i := range texts {
		texts[i] = fmt.Sprintf("SELECT * FROM items WHERE id <= %d", i)
	}
	var ids [32]QueryID
	cycle := func(k int) func() {
		return func() {
			st := New(conn, Config{})
			for i := 0; i < k; i++ {
				ids[i], _ = st.Register(texts[i])
			}
			for i := 0; i < k; i++ {
				if rs, err := st.ResultSet(ids[i]); err != nil || len(rs.Rows) != min(i, 3) {
					t.Fatalf("%q: %v, %v", texts[i], rs, err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle(32)()
	cycle(8)()
	a8, a32 := testing.AllocsPerRun(50, cycle(8)), testing.AllocsPerRun(50, cycle(32))
	if a8 != a32 {
		t.Fatalf("a request of 8 reads allocates %v times, of 32 reads %v", a8, a32)
	}
}
