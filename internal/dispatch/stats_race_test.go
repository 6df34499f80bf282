package dispatch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/driver"
)

// This file is the concurrency audit for the stats surfaces, written after
// reviewing every counter the dispatchers expose:
//
//   - All Dispatcher.Stats() counters live in Local.stats (snapshot copies
//     under Local.mu).
//   - Server.Stats() copies under Server.mu, including the per-worker
//     slices (deep-copied, so a caller cannot race the next batch's
//     append).
//   - Conn.QueriesSent is an atomic counter.
//
// The audit found no unguarded read, but only -race keeps it that way: this
// test hammers every Stats surface concurrently with Submit/Wait — reads
// and writes — across both strategies at once against one server.

// TestStatsRace runs n sessions per strategy submitting read and write
// batches while reader goroutines spin on every stats surface.
func TestStatsRace(t *testing.T) {
	srv, connect := rig(t)
	const sessions = 3
	const rounds = 40

	var stop atomic.Bool
	var readers sync.WaitGroup
	spin := func(read func()) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !stop.Load() {
				read()
			}
		}()
	}

	spin(func() { srv.Stats() })

	var workers sync.WaitGroup
	var firstErr atomic.Value
	fail := func(err error) {
		firstErr.CompareAndSwap(nil, err)
	}
	for s := 0; s < sessions; s++ {
		for _, kind := range []Kind{KindSync, KindAsync} {
			conn, _ := connect(100 * time.Microsecond)
			d := NewSync(conn)
			if kind == KindAsync {
				d = NewAsync(conn)
			}
			spin(func() { d.Stats() })
			spin(func() { conn.QueriesSent() })
			workers.Add(1)
			go func(s int, kind Kind, d Dispatcher) {
				defer workers.Done()
				defer d.Close()
				for r := 0; r < rounds; r++ {
					var stmts []driver.Stmt
					if r%4 == 3 {
						// A write batch.
						stmts = []driver.Stmt{prep("UPDATE items SET qty = ? WHERE id = ?", int64(r), int64(1+r%3))}
					} else {
						stmts = []driver.Stmt{sel(int64(1 + r%3)), sel(int64(1 + (r+1)%3))}
					}
					if _, _, err := d.Wait(d.Submit(stmts)); err != nil {
						fail(fmt.Errorf("%v session %d round %d: %w", kind, s, r, err))
						return
					}
				}
			}(s, kind, d)
		}
	}

	workers.Wait()
	stop.Store(true)
	readers.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Queries; got == 0 {
		t.Fatal("no statements reached the server")
	}
}
