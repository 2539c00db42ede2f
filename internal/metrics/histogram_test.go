package metrics

import (
	"sync"
	"testing"
)

// powersOfTwo are the bounds 1, 2, 4, …, 1024.
var powersOfTwo = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

func TestHistogramBuckets(t *testing.T) {
	// One value alone: every quantile is its bucket, bounded by the
	// previous bound and its own; past the last bound, the overflow bucket
	// reports the last bound as both.
	for _, tc := range []struct{ v, lo, hi uint64 }{
		{1, 0, 1}, {2, 1, 2}, {3, 2, 4}, {4, 2, 4}, {5, 4, 8}, {8, 4, 8},
		{9, 8, 16}, {1024, 512, 1024}, {5000, 1024, 1024},
	} {
		h := HistogramOver(powersOfTwo)
		h.Observe(tc.v)
		if lo, hi, frac := h.Quantile(0.5); lo != tc.lo || hi != tc.hi || frac != 0.5 {
			t.Errorf("Observe(%d): p50 in (%d, %d] at %v, want (%d, %d] at 0.5", tc.v, lo, hi, frac, tc.lo, tc.hi)
		}
		if h.Count() != 1 || h.Sum() != tc.v {
			t.Errorf("Observe(%d): count %d, sum %d", tc.v, h.Count(), h.Sum())
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := HistogramOver(powersOfTwo)
	if lo, hi, frac := h.Quantile(0.5); lo != 0 || hi != 0 || frac != 0 {
		t.Fatalf("empty histogram: p50 (%d, %d] at %v, want zeros", lo, hi, frac)
	}
	for i := 0; i < 99; i++ {
		h.Observe(1)
	}
	h.Observe(12) // one value in (8, 16]
	for _, tc := range []struct {
		q      float64
		lo, hi uint64
		frac   float64
	}{
		{0.50, 0, 1, 50.0 / 99},
		{0.99, 0, 1, 1}, // 99 of 100 values are 1: the rank is reached in the first bucket
		{1, 8, 16, 1},
	} {
		if lo, hi, frac := h.Quantile(tc.q); lo != tc.lo || hi != tc.hi || frac != tc.frac {
			t.Errorf("q=%v: (%d, %d] at %v, want (%d, %d] at %v", tc.q, lo, hi, frac, tc.lo, tc.hi, tc.frac)
		}
	}
	if h.Count() != 100 || h.Sum() != 99+12 {
		t.Fatalf("count %d, sum %d, want 100 and 111", h.Count(), h.Sum())
	}
}

// TestHistogramConcurrent reads quantiles while values are observed — the
// -race job's target.
func TestHistogramConcurrent(t *testing.T) {
	h := HistogramOver(powersOfTwo)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	for i := 0; i < 100; i++ {
		if lo, hi, frac := h.Quantile(0.99); lo > hi || frac < 0 || frac > 1 {
			t.Fatalf("p99 (%d, %d] at %v", lo, hi, frac)
		}
	}
	wg.Wait()
	if h.Count() != 4000 || h.Sum() != 4*999*1000/2 {
		t.Fatalf("count %d, sum %d", h.Count(), h.Sum())
	}
}
