package driver

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// TestFaultOutageAndRecovery: inside a scheduled outage window every batch
// fails with the virtual failure time carried in the returned
// completion; past the window the same batch succeeds — the recovery
// contract the dispatch retry loop is built on.
func TestFaultOutageAndRecovery(t *testing.T) {
	_, srv, conn := rig(t, time.Millisecond)
	srv.SetFaults(faults.NewPlane(faults.Config{
		Outages: []faults.Outage{{Shard: 0, From: 0, To: 5 * time.Millisecond}},
	}))
	stmts := []Stmt{prep("SELECT v FROM kv WHERE k = 2")}
	_, failAt, err := conn.Exec(obs.Ctx{}, 2*time.Millisecond, stmts)
	var fe *faults.Error
	if !errors.As(err, &fe) || fe.Kind != "outage" || !faults.Retriable(err) {
		t.Fatalf("inside outage: err = %v", err)
	}
	if failAt <= 2*time.Millisecond {
		t.Fatalf("failure observed at %v, want after arrival (wasted trip)", failAt)
	}
	if got := conn.Link().Stats().RoundTrips; got != 1 {
		t.Fatalf("failed attempt charged %d trips, want 1", got)
	}
	results, _, err := conn.Exec(obs.Ctx{}, 6*time.Millisecond, stmts)
	if err != nil || results[0].Rows[0][0] != "two" {
		t.Fatalf("after outage: results=%v err=%v", results, err)
	}
	srv.SetFaults(nil)
	if _, _, err := conn.Exec(obs.Ctx{}, 3*time.Millisecond, stmts); err != nil {
		t.Fatalf("plane uninstalled: %v", err)
	}
}

// TestFaultLinkTimeoutHook: installing the plane on the server points the
// connection's link hook at it, and a timed-out trip lands in the link's
// Timeouts counter with the failure observed after the wasted delay.
func TestFaultLinkTimeoutHook(t *testing.T) {
	_, srv, conn := rig(t, time.Millisecond)
	srv.SetFaults(faults.NewPlane(faults.Config{LinkTimeoutRate: 1}))
	_, failAt, err := conn.Exec(obs.Ctx{}, time.Millisecond, []Stmt{prep("SELECT * FROM kv")})
	if fe := (*faults.Error)(nil); !errors.As(err, &fe) || fe.Kind != "timeout" {
		t.Fatalf("err = %v", err)
	}
	if want := time.Millisecond + faults.DefaultLinkTimeout; failAt != want {
		t.Fatalf("failAt = %v, want arrival + timeout = %v", failAt, want)
	}
	if s := conn.Link().Stats(); s.Timeouts != 1 {
		t.Fatalf("link timeouts = %d, want 1", s.Timeouts)
	}
}

// TestFaultDropsCountShardFailures: a scheduled outage and an injected
// drop each add exactly one to FaultDrops; a link timeout fails before any
// shard is consulted and adds nothing.
func TestFaultDropsCountShardFailures(t *testing.T) {
	_, srv, conn := rig(t, time.Millisecond)
	stmts := []Stmt{prep("SELECT v FROM kv WHERE k = ?", int64(1))}
	for i, tc := range []struct {
		cfg  faults.Config
		want int64
	}{
		{faults.Config{Outages: []faults.Outage{{Shard: 0, From: 0, To: 5 * time.Millisecond}}}, 1},
		{faults.Config{ExecErrorRate: 1}, 2},
		{faults.Config{LinkTimeoutRate: 1}, 2},
	} {
		srv.SetFaults(faults.NewPlane(tc.cfg))
		if _, _, err := conn.Exec(obs.Ctx{}, 2*time.Millisecond, stmts); !faults.Retriable(err) {
			t.Fatalf("case %d: err = %v, want an injected fault", i, err)
		}
		if got := srv.Stats().FaultDrops; got != tc.want {
			t.Fatalf("case %d: FaultDrops = %d, want %d", i, got, tc.want)
		}
	}
}
