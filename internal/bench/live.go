package bench

import (
	"sync/atomic"

	"repro/internal/driver"
	"repro/internal/obs"
)

// liveCell is the throughput or fault-sweep cell replaying now: its server,
// its page-latency histogram (throughput cells) and the link timeouts its
// page loads have seen so far (fault cells).
type liveCell struct {
	srv          *driver.Server
	pageLat      *obs.Histogram
	linkTimeouts atomic.Int64
}

// live is the most recently started cell; each cell replaces it.
var live atomic.Pointer[liveCell]

// Quantiles summarizes one latency histogram.
type Quantiles struct {
	Count         int64
	P50, P95, P99 int64 // nanoseconds
}

func quantiles(h *obs.Histogram) Quantiles {
	return Quantiles{
		Count: h.Count(),
		P50:   int64(h.Quantile(0.50)),
		P95:   int64(h.Quantile(0.95)),
		P99:   int64(h.Quantile(0.99)),
	}
}

// LiveSnapshot is what the -debugaddr expvar endpoint publishes: the live
// cell's server counters (FaultDrops is its fault count), its link
// timeouts, and the queue-wait and page-latency quantiles. Every value is
// read from the struct or histogram that counts it.
type LiveSnapshot struct {
	Server       driver.ServerStats
	LinkTimeouts int64
	QueueWait    Quantiles
	PageLatency  Quantiles
}

// Live snapshots the cell replaying now; ok is false before the first
// throughput or fault-sweep cell starts.
func Live() (snap LiveSnapshot, ok bool) {
	c := live.Load()
	if c == nil {
		return snap, false
	}
	snap.Server = c.srv.Stats()
	snap.LinkTimeouts = c.linkTimeouts.Load()
	snap.QueueWait = quantiles(c.srv.QueueWaits())
	snap.PageLatency = quantiles(c.pageLat)
	return snap, true
}
