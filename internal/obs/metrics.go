package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are atomic;
// hot paths (the driver's per-batch accounting) call Add without locks.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value reads the counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value reads the gauge.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket latency histogram. Buckets are shared
// geometric bounds (latencyBounds) so histograms merge and compare
// without coordination; counts are atomic so session goroutines observe
// concurrently. Quantiles interpolate within the containing bucket and
// clamp to the observed min/max, which keeps p50 on a single-valued
// distribution exact.
type Histogram struct {
	bounds []time.Duration // upper bound per bucket; last is +inf sentinel
	counts []atomic.Int64
	total  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// latencyBounds is the shared bucket layout: geometric from 1µs with
// ratio 2^(1/4) (four buckets per doubling), spanning 1µs..~84s in 96
// buckets — fine enough that interpolation error stays under ~19% of the
// value, coarse enough that a histogram is one cache line of counts per
// few buckets.
var latencyBounds = func() []time.Duration {
	const n = 96
	out := make([]time.Duration, n)
	f := float64(time.Microsecond)
	for i := 0; i < n; i++ {
		out[i] = time.Duration(f)
		f *= 1.189207115002721 // 2^(1/4)
	}
	return out
}()

// NewHistogram creates a histogram over the shared latency buckets.
func NewHistogram() *Histogram {
	h := &Histogram{
		bounds: latencyBounds,
		counts: make([]atomic.Int64, len(latencyBounds)+1),
	}
	h.min.Store(int64(^uint64(0) >> 1))
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	idx := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= d })
	h.counts[idx].Add(1)
	h.total.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.min.Load()
		if int64(d) >= cur || h.min.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if int64(d) <= cur || h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum reports the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean reports the average observation.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the containing bucket, clamped to the observed min and max.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			var lo, hi time.Duration
			if i == 0 {
				lo, hi = 0, h.bounds[0]
			} else if i < len(h.bounds) {
				lo, hi = h.bounds[i-1], h.bounds[i]
			} else {
				lo, hi = h.bounds[len(h.bounds)-1], time.Duration(h.max.Load())
			}
			frac := (rank - float64(cum)) / float64(c)
			v := lo + time.Duration(float64(hi-lo)*frac)
			if mn := time.Duration(h.min.Load()); v < mn {
				v = mn
			}
			if mx := time.Duration(h.max.Load()); v > mx {
				v = mx
			}
			return v
		}
		cum += c
	}
	return time.Duration(h.max.Load())
}

// Registry is a named collection of metrics. Get-or-create is idempotent,
// so each layer registers its instruments by name without coordinating
// with the others — the unified replacement for hand-threading deltas
// between *Stats structs.
type Registry struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// Snapshot returns every metric's current value keyed by name, with
// histograms expanded to count/sum/mean/p50/p95/p99. Values are
// JSON-encodable (the expvar endpoint publishes this map).
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counts := make(map[string]*Counter, len(r.counts))
	for k, v := range r.counts {
		counts[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	out := make(map[string]any)
	for k, c := range counts {
		out[k] = c.Value()
	}
	for k, g := range gauges {
		out[k] = g.Value()
	}
	for k, h := range hists {
		out[k+".count"] = h.Count()
		out[k+".sum_ns"] = int64(h.Sum())
		out[k+".mean_ns"] = int64(h.Mean())
		out[k+".p50_ns"] = int64(h.Quantile(0.50))
		out[k+".p95_ns"] = int64(h.Quantile(0.95))
		out[k+".p99_ns"] = int64(h.Quantile(0.99))
	}
	return out
}

// Format renders the snapshot as sorted "name value" lines.
func (r *Registry) Format() string {
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%-32s %v\n", k, snap[k])
	}
	return sb.String()
}

// current is the process-default registry, published by the -debugaddr
// expvar endpoint. Benchmarks install their per-run registry here so a
// profiling run exposes live metrics over HTTP.
var current atomic.Pointer[Registry]

// SetCurrent installs the process-default registry.
func SetCurrent(r *Registry) { current.Store(r) }

// Current returns the process-default registry (nil if none installed).
func Current() *Registry { return current.Load() }
