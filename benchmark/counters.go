package main

import (
	"runtime"

	"repro/internal/driver"
	"repro/internal/sqldb/engine"
	"repro/internal/sqldb/plan"
	"repro/internal/sqldb/sqlparse"
	"repro/internal/thunk"
)

// ctr indexes one additive counter. Every value is read from a layer's own
// public Stats() snapshot (or the web framework's per-load Result); the
// benchmark adds nothing inside the program.
type ctr int

const (
	// webapp (per-load Result).
	cModelPuts ctr = iota
	cRendered
	cHTMLBytes
	// orm.SessionStats.
	cLoads
	cIdentityHits
	cEntities
	// querystore.Stats.
	cRegistered
	cDedupHits
	cBatches
	cForcedByWrite
	// merge.Stats.
	cMergeBatches
	cMergeGroups
	cMergeMerged
	cMergeSaved
	cMergeIneligible
	cMergeRowsDemuxed
	// dispatch.Stats.
	cDispStmtsIn
	cDispErrors
	cDispRetries
	cOverlapSavedNS
	// netsim.LinkStats.
	cRoundTrips
	cNetBytes
	cNetTimeNS
	// driver.ServerStats.
	cDBStmts
	cDBBatches
	cDBRows
	cDBTimeNS
	cQueueWaitNS
	cWorkerWallNS
	// plan / sqlparse.
	cPlanHits
	cPlanMisses
	cParseCalls
	// thunk.GlobalStats.
	cThunkAllocs
	cThunkForces
	cThunkMemoHits
	// runtime.MemStats.
	cGCCycles
	cGCPauseNS
	cMallocs
	cTotalAllocBytes

	nCtr
)

// counters is one snapshot (or delta) of every additive counter. The two
// high-water marks ride along separately because they do not add.
type counters struct {
	v         [nCtr]int64
	maxBatch  int64
	peakQueue int64
}

func (c *counters) add(o counters) {
	for i := range c.v {
		c.v[i] += o.v[i]
	}
	c.maxBatch = max(c.maxBatch, o.maxBatch)
	c.peakQueue = max(c.peakQueue, o.peakQueue)
}

// sub removes a baseline taken earlier from the same sources.
func (c *counters) sub(base counters) {
	for i := range c.v {
		c.v[i] -= base.v[i]
	}
}

func (c *counters) f(i ctr) float64 { return float64(c.v[i]) }

// sessionCounters reads the cumulative counters of one client session
// (store, ORM session, dispatcher, link, merge stage).
func sessionCounters(s *session) counters {
	var c counters
	qs := s.store.Stats()
	c.v[cRegistered] = qs.Registered
	c.v[cDedupHits] = qs.DedupHits
	c.v[cBatches] = qs.Batches
	c.v[cForcedByWrite] = qs.ForcedByWrite
	c.maxBatch = int64(qs.MaxBatch)
	if s.orm != nil {
		st := s.orm.Stats()
		c.v[cLoads] = st.Loads
		c.v[cIdentityHits] = st.IdentityHits
		c.v[cEntities] = st.Deserialized
	}
	ms := s.store.MergeStats()
	if s.merger != nil {
		ms = s.merger.Stats()
	}
	c.v[cMergeBatches] = ms.Batches
	c.v[cMergeGroups] = ms.Groups
	c.v[cMergeMerged] = ms.Merged
	c.v[cMergeSaved] = ms.Saved
	c.v[cMergeIneligible] = ms.Ineligible
	c.v[cMergeRowsDemuxed] = ms.RowsDemuxed
	ds := s.store.Dispatcher().Stats()
	c.v[cDispStmtsIn] = ds.StmtsIn
	c.v[cDispErrors] = ds.Errors
	c.v[cDispRetries] = ds.Retries
	c.v[cOverlapSavedNS] = int64(ds.OverlapSaved)
	c.peakQueue = ds.PeakQueue
	ls := s.link.Stats()
	c.v[cRoundTrips] = ls.RoundTrips
	c.v[cNetBytes] = ls.BytesSent + ls.BytesRecv
	c.v[cNetTimeNS] = int64(ls.NetTime)
	return c
}

// globalCounters reads the cumulative process- and server-wide counters:
// every server of the deployment, its plan cache, the parser, the thunk
// runtime and the Go runtime.
func globalCounters(srvs []*driver.Server) counters {
	var c counters
	for _, srv := range srvs {
		st := srv.Stats()
		c.v[cDBStmts] += st.Queries
		c.v[cDBBatches] += st.Batches
		c.v[cDBRows] += st.Rows
		c.v[cDBTimeNS] += int64(st.DBTime)
		c.v[cQueueWaitNS] += int64(st.QueueWait)
		for _, w := range st.WorkerWall {
			c.v[cWorkerWallNS] += int64(w)
		}
		c.v[cWorkerWallNS] += int64(st.RetiredWall)
		ps := srv.DB().PlanCache().Stats()
		c.v[cPlanHits] += ps.Hits
		c.v[cPlanMisses] += ps.Misses
	}
	c.v[cParseCalls] = sqlparse.ParseCalls()
	ts := thunk.GlobalStats()
	c.v[cThunkAllocs] = ts.Allocs()
	c.v[cThunkForces] = ts.Forces()
	c.v[cThunkMemoHits] = ts.MemoHits()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c.v[cGCCycles] = int64(m.NumGC)
	c.v[cGCPauseNS] = int64(m.PauseTotalNs)
	c.v[cMallocs] = int64(m.Mallocs)
	c.v[cTotalAllocBytes] = int64(m.TotalAlloc)
	return c
}

// planEntries and rowsTotal are gauges read once at the end of a run.
func planEntries(dbs []*engine.DB) int {
	n := 0
	for _, db := range dbs {
		n += db.PlanCache().Len()
	}
	return n
}

func rowsTotal(dbs []*engine.DB) int {
	n := 0
	for _, db := range dbs {
		st := db.Store()
		for _, name := range st.TableNames() {
			if t, ok := st.Table(name); ok {
				n += t.NumRows()
			}
		}
	}
	return n
}

// parseInternerTexts is the number of distinct SQL texts the process-wide
// parse interner has seen (each missed exactly once).
func parseInternerTexts() int64 { return plan.ParseCacheStats().Misses }
