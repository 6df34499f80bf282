package querystore

import (
	"strings"
	"testing"

	"repro/internal/dispatch"
)

// These tests pin the write-pipelining contract (paper Sec. 5 follow-on):
// under a deferred dispatcher a mutating statement rides the pipeline as a
// fire-and-forget ticket — the session stops paying a blocking round trip
// per write — while per-session FIFO execution preserves read-your-writes
// and failures are delivered at the next read barrier or at Close, never
// dropped.

// TestPipelinedWriteReadYourWrites: a read registered after a pipelined
// write observes the write's effect — the write's batch executes at its
// Submit, before the read's is submitted.
func TestPipelinedWriteReadYourWrites(t *testing.T) {
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync, PipelineWrites: true})
	defer s.Close()
	if err := s.ExecPipelined("UPDATE items SET qty = 42 WHERE id = 2"); err != nil {
		t.Fatal(err)
	}
	if len(s.inflight) != 1 || !s.inflight[0].pipelined {
		t.Fatal("async store with PipelineWrites waited for its write")
	}
	rs, err := s.Exec("SELECT qty FROM items WHERE id = 2")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0] != int64(42) {
		t.Fatalf("read after pipelined write saw %v, want 42", rs.Rows[0][0])
	}
}

// TestPipelinedWriteErrorAtNextBarrier: a failed pipelined write surfaces
// its execution error at the session's next read barrier (the next force
// that collects), and the forced read's own result stays cached so a retry
// succeeds.
func TestPipelinedWriteErrorAtNextBarrier(t *testing.T) {
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync, PipelineWrites: true})
	defer s.Close()
	if err := s.ExecPipelined("UPDATE no_such_table SET qty = 1"); err != nil {
		t.Fatalf("pipelined write surfaced its error eagerly: %v", err)
	}
	id, err := s.Register("SELECT name FROM items WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ResultSet(id); err == nil {
		t.Fatal("read barrier did not deliver the pending write error")
	} else if strings.Contains(err.Error(), "unknown query id") {
		t.Fatalf("got %q, want the write's execution error", err)
	}
	// Delivered once: the read's own batch succeeded, so the retry returns
	// its cached rows.
	rs, err := s.ResultSet(id)
	if err != nil {
		t.Fatalf("retry after delivered write error: %v", err)
	}
	if rs.Rows[0][0] != "apple" {
		t.Fatalf("retry rows = %v", rs.Rows)
	}
}

// TestPipelinedWriteErrorAtClose is the session-close delivery fix: a
// pipelined write that fails after the last read barrier must not be
// dropped — Close collects it, returns the error, and records it against
// the write's own QueryID.
func TestPipelinedWriteErrorAtClose(t *testing.T) {
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync, PipelineWrites: true})
	if err := s.ExecPipelined("UPDATE no_such_table SET qty = 1"); err != nil {
		t.Fatalf("pipelined write surfaced its error eagerly: %v", err)
	}
	err := s.Close()
	if err == nil {
		t.Fatal("Close dropped the pending write error")
	}
	// The error is recorded against the originating id (the write was the
	// only registration, so it holds id 0), not just returned once.
	if _, ferr := s.ResultSet(QueryID(0)); ferr == nil {
		t.Fatal("write id lost its deferred error after Close")
	} else if strings.Contains(ferr.Error(), "unknown query id") {
		t.Fatalf("got %q, want the write's execution error recorded per id", ferr)
	}
}

// TestPipelinedWriteFlushDeliversError: an explicit Flush is a barrier too.
func TestPipelinedWriteFlushDeliversError(t *testing.T) {
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync, PipelineWrites: true})
	defer s.Close()
	if err := s.ExecPipelined("UPDATE no_such_table SET qty = 1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err == nil {
		t.Fatal("Flush did not deliver the pending write error")
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("write error delivered twice: %v", err)
	}
}

// TestPipelinedWriteErrorNotShadowedByBatchError: when a barrier observes
// both a failed read batch and a failed pipelined write from different
// batches, returning the read's error must not discard the write's — the
// barrier delivers both, joined, and exactly once.
func TestPipelinedWriteErrorNotShadowedByBatchError(t *testing.T) {
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync, PipelineWrites: true})
	// Batch 1: a read that fails. Batch 2: a fire-and-forget write that
	// fails differently.
	if _, err := s.Register("SELECT * FROM no_such_read_table"); err != nil {
		t.Fatal(err)
	}
	s.FlushAsync()
	if err := s.ExecPipelined("UPDATE no_such_write_table SET x = 1"); err != nil {
		t.Fatal(err)
	}

	first := s.Flush()
	if first == nil {
		t.Fatal("barrier reported nothing")
	}
	for _, want := range []string{"no_such_read_table", "no_such_write_table"} {
		if !strings.Contains(first.Error(), want) {
			t.Fatalf("barrier error %q dropped %s's failure", first, want)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("errors delivered twice: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("everything was delivered, Close still reports %v", err)
	}
}

// TestTwoPipelinedWriteFailuresBothDelivered: two fire-and-forget writes
// failing in separate batches both reach the next barrier, joined — the
// latch must not keep only the first.
func TestTwoPipelinedWriteFailuresBothDelivered(t *testing.T) {
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync, PipelineWrites: true})
	defer s.Close()
	if err := s.ExecPipelined("UPDATE no_such_table_a SET x = 1"); err != nil {
		t.Fatal(err)
	}
	if err := s.ExecPipelined("UPDATE no_such_table_b SET x = 1"); err != nil {
		t.Fatal(err)
	}
	err := s.Flush()
	if err == nil {
		t.Fatal("barrier delivered neither write error")
	}
	for _, want := range []string{"no_such_table_a", "no_such_table_b"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("barrier error %q dropped %s's failure", err, want)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("joined write errors delivered twice: %v", err)
	}
}

// TestCloseJoinsBatchAndWriteErrors: Close is terminal — a pending write
// error cannot wait for a later barrier, so it joins the batch error in
// the return value instead of being dropped.
func TestCloseJoinsBatchAndWriteErrors(t *testing.T) {
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync, PipelineWrites: true})
	if _, err := s.Register("SELECT * FROM no_such_read_table"); err != nil {
		t.Fatal(err)
	}
	s.FlushAsync()
	if err := s.ExecPipelined("UPDATE no_such_write_table SET x = 1"); err != nil {
		t.Fatal(err)
	}
	err := s.Close()
	if err == nil {
		t.Fatal("Close dropped both errors")
	}
	for _, want := range []string{"no_such_read_table", "no_such_write_table"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("Close error %q does not carry %s's failure", err, want)
		}
	}
}

// TestExecPipelinedSyncParity: under the synchronous dispatcher writes
// cannot ride anything — ExecPipelined degenerates to Exec minus the
// result, surfacing errors immediately.
func TestExecPipelinedSyncParity(t *testing.T) {
	s, _ := rig(t, Config{PipelineWrites: true})
	defer s.Close()
	if err := s.ExecPipelined("UPDATE no_such_table SET qty = 1"); err == nil {
		t.Fatal("sync ExecPipelined deferred its error")
	}
	if err := s.ExecPipelined("UPDATE items SET qty = 9 WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	rs, err := s.Exec("SELECT qty FROM items WHERE id = 3")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0] != int64(9) {
		t.Fatalf("qty = %v, want 9", rs.Rows[0][0])
	}
}

// TestExecPipelinedWaitsUnlessConfigured: a deferred dispatcher alone does
// not pipeline writes — without Config.PipelineWrites, ExecPipelined waits
// for the write's own result, so its error surfaces at the call and nothing
// is left in flight.
func TestExecPipelinedWaitsUnlessConfigured(t *testing.T) {
	s, _ := rig(t, Config{Dispatch: dispatch.KindAsync})
	defer s.Close()
	if err := s.ExecPipelined("UPDATE no_such_table SET qty = 1"); err == nil {
		t.Fatal("unpipelined ExecPipelined deferred its error")
	}
	if err := s.ExecPipelined("UPDATE items SET qty = 9 WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	if len(s.inflight) != 0 {
		t.Fatalf("%d batches left in flight after an unpipelined write", len(s.inflight))
	}
}
