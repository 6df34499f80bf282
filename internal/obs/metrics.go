package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

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
