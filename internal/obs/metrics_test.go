package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var h *Histogram
	h.Observe(time.Second)
	if h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram")
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
}

func TestHistogramQuantileSpread(t *testing.T) {
	h := NewHistogram()
	// 1ms..100ms uniform.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
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

// TestHistogramConcurrent: observations from 8 goroutines land as they do
// from one, so every quantile matches the serially fed histogram's.
func TestHistogramConcurrent(t *testing.T) {
	h, serial := NewHistogram(), NewHistogram()
	for g := 0; g < 8; g++ {
		for i := 1; i <= 1000; i++ {
			serial.Observe(time.Duration(i) * time.Microsecond)
		}
	}
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
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1.0} {
		if got, want := h.Quantile(q), serial.Quantile(q); got != want {
			t.Fatalf("q%.2f = %v, want %v", q, got, want)
		}
	}
}
