package main

import (
	"fmt"
	"time"

	"repro/internal/dispatch"
	"repro/internal/driver"
	"repro/internal/netsim"
	"repro/internal/querystore"
	"repro/internal/sqldb"
	"repro/internal/sqldb/engine"
	"repro/internal/sqldb/plan"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/sqldb/storage"
	"repro/internal/thunk"
)

// Layer probes time one lower layer at a time, from outside, through its
// public function, on the statements the workload really flushed: the
// traced run records the batches its first warm-up pass submits
// (querystore.Config.Record) and replays them through the driver, the
// engine, the planner, the parser and the query store. Running the same
// probe before and after the traced passes gives the *_growth ratios: how
// much slower a layer got merely because the servers lived longer.

// corpusCap bounds the recorded corpus; the page workloads flush about 700
// batches a pass, oltp_sloth about 7000.
const corpusCap = 1500

// corpusBatch is one recorded read-only batch and the server it went to.
type corpusBatch struct {
	srv   int
	stmts []driver.Stmt
}

// corpus collects read-only batches while on. Only client 0 records, so it
// needs no lock.
type corpus struct {
	on      bool
	batches []corpusBatch
}

// recorder returns the querystore.Config.Record hook for server srv.
// Batches with a write are skipped: probes replay the corpus many times and
// must leave the data alone.
func (k *corpus) recorder(srv int) func([]driver.Stmt) {
	return func(stmts []driver.Stmt) {
		if !k.on || len(k.batches) >= corpusCap {
			return
		}
		for _, st := range stmts {
			if _, ok := st.Parsed.(*sqlparse.SelectStmt); !ok {
				return
			}
		}
		k.batches = append(k.batches, corpusBatch{srv, stmts})
	}
}

func (k *corpus) stmtCount() int {
	n := 0
	for _, b := range k.batches {
		n += len(b.stmts)
	}
	return n
}

// corpusStmt is one recorded statement and the server it went to.
type corpusStmt struct {
	srv int
	st  driver.Stmt
}

// distinct lists one statement per distinct SQL text, in first-seen order.
func (k *corpus) distinct() []corpusStmt {
	seen := make(map[string]bool)
	var out []corpusStmt
	for _, b := range k.batches {
		for _, st := range b.stmts {
			if !seen[st.SQL] {
				seen[st.SQL] = true
				out = append(out, corpusStmt{b.srv, st})
			}
		}
	}
	return out
}

// probeReps is how often each probe repeats its loop; the fastest
// repetition is reported, which a collection landing in one of them cannot
// move.
const probeReps = 5

// fastest runs fn probeReps times and returns the shortest duration in
// nanoseconds, or the first error.
func fastest(fn func() error) (float64, error) {
	best := time.Duration(0)
	for r := 0; r < probeReps; r++ {
		start := hostNow()
		if err := fn(); err != nil {
			return 0, err
		}
		if d := hostNow().Sub(start); r == 0 || d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()), nil
}

// probeFuture is where probe connections sit on the servers' virtual
// timelines: far beyond any client, so the occupancy a probe batch leaves
// behind can never queue a workload batch, while the probe itself still
// walks everything the workload left on the lanes, as the workload's next
// batch would.
const probeFuture = 10000 * time.Hour

// layerTimes is one round of corpus probes.
type layerTimes struct {
	execBatchUS  float64 // driver.Conn.ExecBatch, per batch
	engineUS     float64 // engine snapshot execution, per statement
	engineBatch  float64 // the same, per batch
	rowsReturned float64 // result rows per statement
}

// driverSelfUS is the driver's own share of a batch: pricing, occupancy,
// slot and snapshot handling, everything but the engine's execution.
func (t layerTimes) driverSelfUS() float64 { return t.execBatchUS - t.engineBatch }

// probeLayers replays the corpus through the driver and through the engine.
func probeLayers(k *corpus, srvs []*driver.Server) (layerTimes, error) {
	var t layerTimes
	if len(k.batches) == 0 {
		return t, nil
	}
	clock := netsim.NewVirtualClock()
	clock.Advance(probeFuture)
	conns := make([]*driver.Conn, len(srvs))
	for i, srv := range srvs {
		conns[i] = srv.Connect(netsim.NewLink(clock, 0))
	}
	viaDriver := func(b corpusBatch) error {
		if _, err := conns[b.srv].ExecBatch(b.stmts); err != nil {
			return fmt.Errorf("probe ExecBatch: %w", err)
		}
		return nil
	}
	rows := 0
	viaEngine := func(b corpusBatch) error {
		ss := srvs[b.srv].DB().BeginSnapshot()
		defer ss.Close()
		for _, st := range b.stmts {
			rs, _, err := ss.ExecSelect(st.SQL, st.Parsed, st.Args, false)
			if err != nil {
				return fmt.Errorf("probe ExecSelect: %w", err)
			}
			rows += len(rs.Rows)
		}
		return nil
	}
	// Each batch goes through both layers back to back, so both see the
	// same tables and the same machine state and their difference is the
	// driver's own work; which goes first alternates, so neither always
	// finds the rows already in cache. The fastest whole replay counts.
	var driverNS, engineNS float64
	for r := 0; r < probeReps; r++ {
		rows = 0
		var d, e time.Duration
		for i, b := range k.batches {
			first, second := viaDriver, viaEngine
			if i%2 == 1 {
				first, second = viaEngine, viaDriver
			}
			t0 := hostNow()
			if err := first(b); err != nil {
				return t, err
			}
			t1 := hostNow()
			if err := second(b); err != nil {
				return t, err
			}
			t2 := hostNow()
			if i%2 == 1 {
				d, e = d+t2.Sub(t1), e+t1.Sub(t0)
			} else {
				d, e = d+t1.Sub(t0), e+t2.Sub(t1)
			}
		}
		if r == 0 || float64((d+e).Nanoseconds()) < driverNS+engineNS {
			driverNS, engineNS = float64(d.Nanoseconds()), float64(e.Nanoseconds())
		}
	}
	batches, stmts := float64(len(k.batches)), float64(k.stmtCount())
	t.execBatchUS = driverNS / 1e3 / batches
	t.engineBatch = engineNS / 1e3 / batches
	t.engineUS = engineNS / 1e3 / stmts
	t.rowsReturned = float64(rows) / stmts
	return t, nil
}

// probeParseUS times sqlparse.Parse over the corpus' distinct texts.
func probeParseUS(texts []corpusStmt) float64 {
	ns, err := fastest(func() error {
		for _, t := range texts {
			if _, err := sqlparse.Parse(t.st.SQL); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0
	}
	return ratio(ns/1e3, float64(len(texts)))
}

// probeCompileUS times plan compilation: each distinct text prepared on a
// fresh plan cache over the store of the server it ran against.
func probeCompileUS(texts []corpusStmt, dbs []*engine.DB) float64 {
	ns, _ := fastest(func() error {
		caches := make([]*plan.Cache, len(dbs))
		for i, db := range dbs {
			caches[i] = plan.NewCache(db.Store())
		}
		for _, t := range texts {
			st := dbs[t.srv].Store()
			st.ReadLock()
			caches[t.srv].Prepare(t.st.SQL, t.st.Parsed)
			st.ReadUnlock()
		}
		return nil
	})
	return ratio(ns/1e3, float64(len(texts)))
}

// cannedDispatcher answers every batch at once with one shared empty
// result per statement: what is left is the query store's own work.
type cannedDispatcher struct {
	canned *sqldb.ResultSet
	sizes  map[*dispatch.Ticket]int
}

func (d *cannedDispatcher) Submit(stmts []driver.Stmt) *dispatch.Ticket {
	t := &dispatch.Ticket{}
	d.sizes[t] = len(stmts)
	return t
}

func (d *cannedDispatcher) Wait(t *dispatch.Ticket) ([]*sqldb.ResultSet, dispatch.BatchStats, error) {
	n := d.sizes[t]
	delete(d.sizes, t)
	out := make([]*sqldb.ResultSet, n)
	for i := range out {
		out[i] = d.canned
	}
	return out, dispatch.BatchStats{Sent: n}, nil
}

func (d *cannedDispatcher) Deferred() bool        { return false }
func (d *cannedDispatcher) Stats() dispatch.Stats { return dispatch.Stats{} }
func (d *cannedDispatcher) Close()                {}

// probeRegisterNS times the query store alone: every recorded batch is
// re-registered statement by statement on a fresh store and flushed into
// the canned dispatcher.
func probeRegisterNS(k *corpus, srv *driver.Server) (float64, error) {
	if len(k.batches) == 0 {
		return 0, nil
	}
	conn := srv.Connect(netsim.NewLink(netsim.NewVirtualClock(), 0))
	disp := &cannedDispatcher{canned: &sqldb.ResultSet{}, sizes: make(map[*dispatch.Ticket]int)}
	ns, err := fastest(func() error {
		for _, b := range k.batches {
			store := querystore.NewWithDispatcher(conn, querystore.Config{}, disp)
			for _, st := range b.stmts {
				if _, err := store.Register(st.SQL, st.Args...); err != nil {
					return fmt.Errorf("probe Register: %w", err)
				}
			}
			if err := store.Flush(); err != nil {
				return fmt.Errorf("probe Flush: %w", err)
			}
		}
		return nil
	})
	return ns / float64(k.stmtCount()), err
}

// thunkSink keeps the probe's forced values observable.
var thunkSink int

// probeThunkNS times allocating and forcing one thunk.
func probeThunkNS() float64 {
	const n = 100000
	ns, _ := fastest(func() error {
		for i := 0; i < n; i++ {
			thunkSink += thunk.New(func() int { return i }).Force()
		}
		return nil
	})
	return ns / n
}

// storageTimes is one round of storage probes on the deployment's largest
// table.
type storageTimes struct {
	lookupNS, scanNSPerRow, snapshotNS float64
}

func probeStorage(dbs []*engine.DB) storageTimes {
	var st *storage.Store
	var tab *storage.Table
	for _, db := range dbs {
		for _, name := range db.Store().TableNames() {
			if t, ok := db.Store().Table(name); ok && t.PKOrdinal() >= 0 && (tab == nil || t.NumRows() > tab.NumRows()) {
				st, tab = db.Store(), t
			}
		}
	}
	var out storageTimes
	if tab == nil || tab.NumRows() == 0 {
		return out
	}
	// Look up keys the table really holds (TPC keys are sparse).
	pk := tab.PKOrdinal()
	var keys []sqldb.Value
	st.ReadLock()
	_ = tab.ScanEach(nil, func(r storage.Row) error {
		if len(keys) < 4096 {
			keys = append(keys, r[pk])
		}
		return nil
	})
	const lookups = 100000
	ns, _ := fastest(func() error {
		for i := 0; i < lookups; i++ {
			thunkSink += len(tab.Lookup(pk, keys[i%len(keys)]))
		}
		return nil
	})
	st.ReadUnlock()
	out.lookupNS = ns / lookups

	rows := 0
	ns, _ = fastest(func() error {
		rows = 0
		snap := st.Snapshot()
		st.ReadLock()
		err := tab.ScanEach(snap, func(storage.Row) error { rows++; return nil })
		st.ReadUnlock()
		snap.Release()
		return err
	})
	out.scanNSPerRow = ratio(ns, float64(rows))

	const snaps = 100000
	ns, _ = fastest(func() error {
		for i := 0; i < snaps; i++ {
			st.Snapshot().Release()
		}
		return nil
	})
	out.snapshotNS = ns / snaps
	return out
}
