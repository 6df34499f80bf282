package querystore

import (
	"errors"
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
		if n := len(s.cache) + len(s.errs); n > perRequest {
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
