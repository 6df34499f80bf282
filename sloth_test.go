package sloth

import (
	"testing"
	"time"
)

func seeded(t *testing.T) *Testbed {
	t.Helper()
	tb := NewTestbed(time.Millisecond)
	tb.MustExec("CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)")
	tb.MustExec("INSERT INTO notes (id, body) VALUES (1, 'one'), (2, 'two'), (3, 'three')")
	return tb
}

func TestLazyQueryBatches(t *testing.T) {
	tb := seeded(t)
	a := tb.Runtime.LazyQuery("SELECT body FROM notes WHERE id = 1")
	b := tb.Runtime.LazyQuery("SELECT body FROM notes WHERE id = 2")
	c := tb.Runtime.LazyQuery("SELECT body FROM notes WHERE id = 3")
	if tb.RoundTrips() != 0 {
		t.Fatal("queries executed before force")
	}
	if got := b.Force(); got.Err != nil || got.RS.Rows[0][0] != "two" {
		t.Fatalf("b = %+v", got)
	}
	if tb.RoundTrips() != 1 {
		t.Fatalf("round trips = %d, want 1 (batch of 3)", tb.RoundTrips())
	}
	if a.Force().RS.Rows[0][0] != "one" || c.Force().RS.Rows[0][0] != "three" {
		t.Fatal("sibling results wrong")
	}
	if tb.RoundTrips() != 1 {
		t.Fatal("siblings caused extra trips")
	}
}

func TestExecWriteFlushes(t *testing.T) {
	tb := seeded(t)
	pending := tb.Runtime.LazyQuery("SELECT body FROM notes WHERE id = 1")
	if _, err := tb.Runtime.Exec("UPDATE notes SET body = 'ONE' WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	if tb.RoundTrips() != 1 {
		t.Fatalf("round trips = %d, want 1 (write flushed batch)", tb.RoundTrips())
	}
	// The pending read ran BEFORE the write.
	if got := pending.Force(); got.RS.Rows[0][0] != "one" {
		t.Fatalf("pending read saw %v, want pre-write value", got.RS.Rows[0][0])
	}
}

func TestFlushEmptyNoop(t *testing.T) {
	tb := seeded(t)
	if err := tb.Runtime.Flush(); err != nil {
		t.Fatal(err)
	}
	if tb.RoundTrips() != 0 {
		t.Fatal("empty flush consumed a trip")
	}
}

func TestSessions(t *testing.T) {
	tb := seeded(t)
	if !tb.Runtime.Session().Sloth() {
		t.Fatal("Session() not in sloth mode")
	}
	if tb.Runtime.OriginalSession().Sloth() {
		t.Fatal("OriginalSession() in sloth mode")
	}
}

// TestNewRuntime: a runtime over a connection of one's own batches as the
// testbed's does, and honours its store config (dedup off: the same query
// registered twice ships twice, still in one round trip).
func TestNewRuntime(t *testing.T) {
	tb := seeded(t)
	rt := NewRuntime(tb.Server.Connect(tb.Link), StoreConfig{DisableDedup: true})
	a := rt.LazyQuery("SELECT body FROM notes WHERE id = ?", int64(2))
	b := rt.LazyQuery("SELECT body FROM notes WHERE id = ?", int64(2))
	if got := a.Force(); got.Err != nil || got.RS.Rows[0][0] != "two" {
		t.Fatalf("a = %+v", got)
	}
	if got := b.Force(); got.Err != nil || got.RS.Rows[0][0] != "two" {
		t.Fatalf("b = %+v", got)
	}
	if tb.RoundTrips() != 1 {
		t.Fatalf("round trips = %d, want 1", tb.RoundTrips())
	}
	if sent := rt.Conn().QueriesSent(); sent != 2 {
		t.Fatalf("statements sent = %d, want 2 with dedup off", sent)
	}
}

// TestDeferAndValue: Defer runs its computation once, on the first force;
// Value is already computed.
func TestDeferAndValue(t *testing.T) {
	calls := 0
	d := Defer(func() int { calls++; return 7 })
	if calls != 0 {
		t.Fatal("Defer ran its computation before a force")
	}
	if d.Force() != 7 || d.Force() != 7 || calls != 1 {
		t.Fatalf("forced twice: computation ran %d times", calls)
	}
	if v := Value("ready"); v.Force() != "ready" {
		t.Fatalf("Value forced to %q", v.Force())
	}
}
