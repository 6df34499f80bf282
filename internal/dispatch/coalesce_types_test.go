package dispatch

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/sqldb"
)

// TestSharedCoalescingKeepsArgumentTypesApart is the hub's half of the
// query store's TestDedupKeepsArgumentTypesApart: two sessions in one
// window submit statements that differ only in an argument's TYPE. They
// are different queries, so nothing coalesces and each session reads its
// own rows; the int / int32 spellings Normalize unifies still coalesce.
func TestSharedCoalescingKeepsArgumentTypesApart(t *testing.T) {
	srv, connect := rig(t)
	hubConn, _ := connect(time.Millisecond)
	hub := NewHub(hubConn)
	conn1, _ := connect(time.Millisecond)
	conn2, _ := connect(time.Millisecond)
	d1, d2 := NewShared(hub, conn1), NewShared(hub, conn2)

	echo := func(args ...sqldb.Value) driver.Stmt {
		return driver.Stmt{SQL: "SELECT ? AS v FROM items WHERE id = 1", Args: args}
	}
	pairs := []struct{ a, b sqldb.Value }{
		{int64(5), "5"},
		{nil, "~"},
		{true, "T"},
		{1.0, int64(1)},
	}
	var batch1, batch2 []driver.Stmt
	for _, p := range pairs {
		batch1 = append(batch1, echo(p.a))
		batch2 = append(batch2, echo(p.b))
	}
	// Same text, one argument with the separator byte against two arguments.
	batch1 = append(batch1, echo("a\x1fb"))
	batch2 = append(batch2, echo("a", "b"))
	// And one genuine duplicate across the sessions.
	batch1 = append(batch1, echo(int32(9)))
	batch2 = append(batch2, echo(int(9)))

	before := srv.Stats().Queries
	t1, t2 := d1.Submit(batch1), d2.Submit(batch2)
	rs1, rs2 := mustWait(t, d1, t1), mustWait(t, d2, t2)

	typed := func(rs *sqldb.ResultSet) string { return fmt.Sprintf("%T %v", rs.Rows[0][0], rs.Rows[0][0]) }
	for i, p := range pairs {
		if got, want := typed(rs1[i]), fmt.Sprintf("%T %v", sqldb.Normalize(p.a), p.a); got != want {
			t.Errorf("session 1 stmt %d read %s, want %s", i, got, want)
		}
		if got, want := typed(rs2[i]), fmt.Sprintf("%T %v", sqldb.Normalize(p.b), p.b); got != want {
			t.Errorf("session 2 stmt %d read %s, want %s", i, got, want)
		}
	}
	if got := typed(rs1[4]); got != "string a\x1fb" {
		t.Errorf("session 1 separator-byte argument read %q", got)
	}
	if got := typed(rs2[4]); got != "string a" {
		t.Errorf("session 2 two-argument statement read %q", got)
	}
	if got, want := srv.Stats().Queries-before, int64(len(batch1)+len(batch2)-1); got != want {
		t.Fatalf("server executed %d statements, want %d (only the int32/int pair coalesces)", got, want)
	}
	if c := hub.Stats().Coalesced; c != 1 {
		t.Fatalf("coalesced = %d, want 1", c)
	}
}
