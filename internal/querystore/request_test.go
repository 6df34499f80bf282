package querystore

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dispatch"
)

// These tests pin the request boundary of a long-lived store: EndRequest
// releases what is resolved, so retention is bounded by one request, and
// leaves everything still in progress — above all a pipelined write's
// pending failure — exactly where it was.

// TestEndRequestBoundsRetention runs 1 000 requests (three reads and one
// pipelined write each) through one store: the resolved maps never hold
// more than a request's worth of entries.
func TestEndRequestBoundsRetention(t *testing.T) {
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync, PipelineWrites: true})
	defer s.Close()
	const perRequest = 4
	for req := 0; req < 1000; req++ {
		var ids []QueryID
		for k := int64(1); k <= 3; k++ {
			id, err := s.Register("SELECT name FROM items WHERE id = ?", k)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			if _, err := s.ResultSet(id); err != nil {
				t.Fatalf("request %d: %v", req, err)
			}
		}
		if err := s.ExecPipelined("UPDATE items SET qty = ? WHERE id = 1", int64(req)); err != nil {
			t.Fatal(err)
		}
		s.EndRequest()
		// Only the write still in flight at the boundary may resolve later.
		if n := len(s.results) + len(s.errs); n > perRequest {
			t.Fatalf("request %d: store retains %d resolved entries across the boundary", req, n)
		}
	}
	if got := s.Stats().Registered; got != 1000*perRequest {
		t.Fatalf("registered %d statements, want %d", got, 1000*perRequest)
	}
	rs, err := s.Exec("SELECT qty FROM items WHERE id = 1")
	if err != nil || rs.Rows[0][0] != int64(999) {
		t.Fatalf("last pipelined write not applied: %v, %v", rs, err)
	}
}

// TestEndRequestReleasesOnlyResolvedIDs: a resolved id is unknown after the
// boundary; a queued one and an in-flight one are untouched.
func TestEndRequestReleasesOnlyResolvedIDs(t *testing.T) {
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync})
	defer s.Close()
	resolved, _ := s.Register("SELECT name FROM items WHERE id = 1")
	if _, err := s.ResultSet(resolved); err != nil {
		t.Fatal(err)
	}
	inflight, _ := s.Register("SELECT name FROM items WHERE id = 2")
	s.FlushAsync()
	queued, _ := s.Register("SELECT name FROM items WHERE id = 3")

	s.EndRequest()

	if _, err := s.ResultSet(resolved); !errors.Is(err, ErrUnknownQueryID) {
		t.Fatalf("resolved id after the boundary: %v, want ErrUnknownQueryID", err)
	}
	for id, want := range map[QueryID]string{inflight: "pear", queued: "fig"} {
		rs, err := s.ResultSet(id)
		if err != nil || rs.Rows[0][0] != want {
			t.Fatalf("id %d after the boundary: %v, %v, want %q", id, rs, err, want)
		}
	}
}

// TestEndRequestKeepsPipelinedWriteError: a pipelined write that fails is
// still delivered at the first barrier after the boundary — whether its
// batch was collected before the boundary or after it.
func TestEndRequestKeepsPipelinedWriteError(t *testing.T) {
	for _, collectFirst := range []bool{false, true} {
		s, _ := rig(t, Config{Dispatch: dispatch.KindAsync, PipelineWrites: true})
		if err := s.ExecPipelined("UPDATE no_such_table SET qty = 1"); err != nil {
			t.Fatalf("pipelined write surfaced its error eagerly: %v", err)
		}
		if collectFirst {
			// Collect without delivering: the failure is now latched.
			if err := s.collect(); err == nil {
				t.Fatal("collect did not observe the failed write")
			}
		}
		s.EndRequest()
		_, err := s.Exec("SELECT name FROM items WHERE id = 1")
		if err == nil || !strings.Contains(err.Error(), "no_such_table") {
			t.Fatalf("collectFirst=%v: barrier after the boundary returned %v, want the write's error", collectFirst, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("collectFirst=%v: write error delivered twice: %v", collectFirst, err)
		}
	}
}

// TestRetentionMatchesModel drives an async, write-pipelining store through
// a random schedule of Register / force / FlushAsync / ExecPipelined /
// EndRequest and checks every force against a map-based model of the
// contract: an id resolved before a boundary is unknown after it, queued
// and in-flight ids survive it, and what the store retains never exceeds
// the ids issued since the oldest one still alive.
func TestRetentionMatchesModel(t *testing.T) {
	type state int
	const (
		queued state = iota
		inflight
		resolved
		released
	)
	type entry struct {
		st   state
		want string // "" for a pipelined write
	}
	names := map[int64]string{1: "apple", 2: "pear", 3: "fig"}

	rng := rand.New(rand.NewSource(3))
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync, PipelineWrites: true})
	defer s.Close()
	model := map[QueryID]*entry{}
	var live []QueryID // ids not yet released, in issue order
	move := func(from, to state) {
		for _, id := range live {
			if model[id].st == from {
				model[id].st = to
			}
		}
	}
	maxRetained, sinceBoundary, maxPerRequest := 0, 0, 0
	for requests := 0; requests < 1000; {
		switch op := rng.Intn(10); {
		case op < 4: // register a read
			k := int64(1 + rng.Intn(3))
			id, err := s.Register("SELECT name FROM items WHERE id = ?", k)
			if err != nil {
				t.Fatal(err)
			}
			if e, dup := model[id]; dup {
				if e.st != queued || e.want != names[k] {
					t.Fatalf("id %d reissued for %q while %+v", id, names[k], e)
				}
				break
			}
			model[id] = &entry{st: queued, want: names[k]}
			live = append(live, id)
			sinceBoundary++
		case op < 7 && len(model) > 0: // force any id ever issued
			id := QueryID(rng.Int63n(int64(s.nextID)))
			e := model[id]
			rs, err := s.ResultSet(id)
			if e.st == released {
				if !errors.Is(err, ErrUnknownQueryID) {
					t.Fatalf("released id %d: %v, %v, want ErrUnknownQueryID", id, rs, err)
				}
			} else if err != nil || (e.want != "" && rs.Rows[0][0] != e.want) {
				t.Fatalf("id %d (%+v): %v, %v", id, e, rs, err)
			}
			if e.st != resolved {
				// The force flushed the queue and drained every in-flight batch.
				move(queued, resolved)
				move(inflight, resolved)
			}
		case op == 7:
			s.FlushAsync()
			move(queued, inflight)
		case op == 8:
			if err := s.ExecPipelined("UPDATE items SET qty = qty + 1 WHERE id = 1"); err != nil {
				t.Fatal(err)
			}
			id := s.nextID - 1
			model[id] = &entry{st: queued}
			live = append(live, id)
			sinceBoundary++
			move(queued, inflight)
		default:
			s.EndRequest()
			requests++
			maxPerRequest = max(maxPerRequest, sinceBoundary)
			sinceBoundary = 0
			kept := live[:0]
			for _, id := range live {
				if model[id].st == resolved {
					model[id].st = released
				} else {
					kept = append(kept, id)
				}
			}
			live = kept
			oldest := s.nextID
			if len(live) > 0 {
				oldest = live[0]
			}
			if s.base != oldest || len(s.results) != 0 || len(s.errs) != 0 {
				t.Fatalf("after boundary: base %d (oldest live id %d), %d results, %d errs",
					s.base, oldest, len(s.results), len(s.errs))
			}
		}
		if len(s.results) > int(s.nextID-s.base) {
			t.Fatalf("%d result slots for %d live ids", len(s.results), s.nextID-s.base)
		}
		maxRetained = max(maxRetained, len(s.results)+len(s.errs))
	}
	// A request's retention is its own ids plus what crossed the previous
	// boundary unresolved — at most two requests' worth of ids, never the
	// store's age (s.nextID is in the thousands by now).
	if maxRetained > 2*maxPerRequest {
		t.Fatalf("retained %d entries at once; the largest request issued %d ids (store issued %d)",
			maxRetained, maxPerRequest, s.nextID)
	}
}

// TestEndRequestKeepsInFlightWritesAndHeldResults: EndRequest releases no
// result set. Writes still in flight at the boundary deliver after it — a
// pipelined write's error at the next barrier, a forced write's result —
// and a result set forced before the boundary still reads its rows after
// it and after the next request's reads, as a caller that forces, ends the
// request and then reads expects.
func TestEndRequestKeepsInFlightWritesAndHeldResults(t *testing.T) {
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync, PipelineWrites: true})
	held, err := s.Exec("SELECT name FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	write, _ := s.Register("UPDATE items SET qty = 9 WHERE id = 2")
	if err := s.ExecPipelined("UPDATE no_such_table SET qty = 1"); err != nil {
		t.Fatalf("pipelined write surfaced its error eagerly: %v", err)
	}
	if len(s.inflight) != 2 {
		t.Fatalf("%d batches in flight at the boundary, want 2", len(s.inflight))
	}
	s.EndRequest()
	if _, err := s.Exec("SELECT qty FROM items WHERE id = 2"); err == nil || !strings.Contains(err.Error(), "no_such_table") {
		t.Fatalf("first barrier after the boundary: %v, want the pipelined write's error", err)
	}
	if rs, err := s.ResultSet(write); err != nil || rs.RowsAffected != 1 {
		t.Fatalf("in-flight write after the boundary: %v, %v, want 1 row affected", rs, err)
	}
	if rs, err := s.Exec("SELECT qty FROM items WHERE id = 2"); err != nil || rs.Rows[0][0] != int64(9) {
		t.Fatalf("the in-flight write did not land: %v, %v", rs, err)
	}
	if len(held.Rows) != 1 || held.Rows[0][0] != "apple" || held.Cols[0] != "name" {
		t.Fatalf("a result forced before the boundary reads %v", held)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("write error delivered twice: %v", err)
	}
}
