package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter")
	}
	var h *Histogram
	h.Observe(time.Second)
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry returned instruments")
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(10 * time.Millisecond)
	}
	// With one distinct value, clamping to min/max makes every quantile exact.
	for _, q := range []float64{0.5, 0.95, 0.99, 1.0} {
		if got := h.Quantile(q); got != 10*time.Millisecond {
			t.Fatalf("q%.2f = %v, want 10ms", q, got)
		}
	}
	if h.Mean() != 10*time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	h := NewHistogram()
	// 1ms..100ms uniform.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.50)
	if p50 < 40*time.Millisecond || p50 > 62*time.Millisecond {
		t.Fatalf("p50 = %v, want ≈50ms", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 85*time.Millisecond || p99 > 100*time.Millisecond {
		t.Fatalf("p99 = %v, want ≈99ms", p99)
	}
	if q1 := h.Quantile(1.0); q1 != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want exactly max", q1)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				h.Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	if r.Counter("db.batches") != r.Counter("db.batches") {
		t.Fatal("counter not idempotent")
	}
	if r.Histogram("page.latency") != r.Histogram("page.latency") {
		t.Fatal("histogram not idempotent")
	}
	r.Counter("db.batches").Add(3)
	r.Histogram("page.latency").Observe(5 * time.Millisecond)

	snap := r.Snapshot()
	if snap["db.batches"] != int64(3) {
		t.Fatalf("snapshot counter = %v", snap["db.batches"])
	}
	if snap["page.latency.count"] != int64(1) {
		t.Fatalf("snapshot hist count = %v", snap["page.latency.count"])
	}
	if snap["page.latency.p50_ns"] != int64(5*time.Millisecond) {
		t.Fatalf("snapshot p50 = %v", snap["page.latency.p50_ns"])
	}
}

func TestCurrentRegistry(t *testing.T) {
	old := Current()
	defer SetCurrent(old)
	r := NewRegistry()
	SetCurrent(r)
	if Current() != r {
		t.Fatal("Current did not return installed registry")
	}
}
