package orm

import (
	"errors"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/querystore"
	"repro/internal/sqldb/engine"
)

// pipelineRig is the clinic fixture over an async, write-pipelining store:
// ORM mutators ride the dispatch pipeline as fire-and-forget tickets.
func pipelineRig(t *testing.T) (*Session, *netsim.Link) {
	t.Helper()
	clock := netsim.NewVirtualClock()
	db := engine.New()
	srv := driver.NewServer(db, clock, driver.DefaultCostModel())
	// Seed over a connection of its own, so the test link's counters
	// start at zero.
	seed := srv.Connect(netsim.NewLink(clock, time.Millisecond))
	for _, sql := range []string{
		"CREATE TABLE patients (id INT PRIMARY KEY, name TEXT, age INT)",
		"INSERT INTO patients (id, name, age) VALUES (1, 'Ann', 30), (2, 'Bob', 45)",
	} {
		if _, err := seed.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	link := netsim.NewLink(clock, time.Millisecond)
	conn := srv.Connect(link)
	store := querystore.New(conn, querystore.Config{
		Dispatch:       dispatch.KindAsync,
		PipelineWrites: true,
	})
	return NewSession(store, ModeSloth), link
}

// TestPipelinedInsertReadYourWrites: an ORM Insert through the pipeline is
// immediately visible — from the identity map without any query, and from
// the database through the FIFO-ordered read that follows.
func TestPipelinedInsertReadYourWrites(t *testing.T) {
	patients := MustRegister[Patient]("patients")
	s, _ := pipelineRig(t)
	defer s.Store().Close()

	if err := patients.Insert(s, &Patient{ID: 3, Name: "Cle", Age: 28}); err != nil {
		t.Fatal(err)
	}
	// Identity-map read-your-writes: no query needed for the entity just
	// written.
	loads := s.Stats().Loads
	p, err := patients.FindNow(s, 3)
	if err != nil || p.Name != "Cle" {
		t.Fatalf("find after pipelined insert: %+v, %v", p, err)
	}
	if s.Stats().IdentityHits == 0 || s.Stats().Loads != loads+1 {
		t.Fatal("pipelined insert bypassed the identity map")
	}
	// Database read-your-writes: a fresh query (not identity-mapped)
	// observes the row because the write's batch executed first.
	rows, err := patients.Where(s, "age < ?", int64(40)).Get()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("query after pipelined insert matched %d rows, want 2", len(rows))
	}
}

// TestPipelinedUpdateVisibleToLaterRead: an UPDATE and a DELETE ride the
// pipeline too, in order.
func TestPipelinedUpdateVisibleToLaterRead(t *testing.T) {
	patients := MustRegister[Patient]("patients")
	s, _ := pipelineRig(t)
	defer s.Store().Close()

	p, err := patients.FindNow(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Store().ExecPipelined("UPDATE patients SET age = ? WHERE id = ?", p.Age+1, p.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.Store().ExecPipelined("DELETE FROM patients WHERE id = ?", int64(2)); err != nil {
		t.Fatal(err)
	}
	s.Clear() // drop the identity map so the reads hit the database
	got, err := patients.Where(s, "").Get()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Age != 31 {
		t.Fatalf("after pipelined update+delete: %d rows, first %+v", len(got), got[0])
	}
}

// TestPipelinedWriteErrorAtSessionClose: a failing pipelined write whose
// error nothing forces before the request ends surfaces at Session.Close
// instead of vanishing.
func TestPipelinedWriteErrorAtSessionClose(t *testing.T) {
	patients := MustRegister[Patient]("patients")
	s, _ := pipelineRig(t)
	// A second insert with a duplicate primary key fails at execution
	// time, long after the mutator returned.
	if err := patients.Insert(s, &Patient{ID: 1, Name: "Dup", Age: 1}); err != nil {
		t.Fatalf("pipelined insert surfaced its error eagerly: %v", err)
	}
	if err := s.Store().Close(); err == nil {
		t.Fatal("Session.Close dropped the pipelined write error")
	}
}

// TestClearEndsRequest: Clear is the request boundary of a long-lived
// session. Results resolved before it are released with the identity map —
// a lazy left unforced across it reports ErrUnknownQueryID — and a
// pipelined write that failed before it still reaches the next request.
func TestClearEndsRequest(t *testing.T) {
	patients := MustRegister[Patient]("patients")
	s, _ := pipelineRig(t)
	defer s.Store().Close()

	ann, bob := patients.Find(s, 1), patients.Find(s, 2)
	if p, err := ann.Get(); err != nil || p.Name != "Ann" {
		t.Fatalf("find 1: %+v, %v", p, err)
	}
	s.Clear()
	if _, err := bob.Get(); !errors.Is(err, querystore.ErrUnknownQueryID) {
		t.Fatalf("lazy forced across Clear: %v, want ErrUnknownQueryID", err)
	}

	// Duplicate primary key: fails at execution, after Insert returned.
	if err := patients.Insert(s, &Patient{ID: 1, Name: "Dup", Age: 1}); err != nil {
		t.Fatalf("pipelined insert surfaced its error eagerly: %v", err)
	}
	s.Clear()
	if _, err := patients.FindNow(s, 2); err == nil || errors.Is(err, querystore.ErrUnknownQueryID) {
		t.Fatalf("first read of the next request returned %v, want the insert's error", err)
	}
	if p, err := patients.FindNow(s, 2); err != nil || p.Name != "Bob" {
		t.Fatalf("read after the delivered write error: %+v, %v", p, err)
	}
}
