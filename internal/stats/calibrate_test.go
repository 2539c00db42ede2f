package stats

import (
	"math"
	"testing"
)

func TestCalibrateL1Deterministic(t *testing.T) {
	cfg := CalibrationConfig{Seed: 1, Replicates: 200}
	a, err := CalibrateL1(10, 20, 0.9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CalibrateL1(10, 20, 0.9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("calibration not deterministic: %v vs %v", a, b)
	}
	if a <= 0 || a >= 2 {
		t.Fatalf("epsilon = %v out of (0,2)", a)
	}
}

func TestCalibrateL1ShrinksWithWindows(t *testing.T) {
	// The null L1 distance concentrates as the number of windows grows, so
	// the 95% threshold must shrink (this is exactly Fig. 8's shape).
	cfg := CalibrationConfig{Seed: 2, Replicates: 400}
	small, err := CalibrateL1(10, 10, 0.9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	large, err := CalibrateL1(10, 200, 0.9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if large >= small {
		t.Fatalf("epsilon did not shrink: windows=10 -> %v, windows=200 -> %v", small, large)
	}
}

func TestCalibrateL1Validation(t *testing.T) {
	cfg := CalibrationConfig{Replicates: 10}
	if _, err := CalibrateL1(0, 10, 0.9, cfg); err == nil {
		t.Error("m=0 must fail")
	}
	if _, err := CalibrateL1(10, 0, 0.9, cfg); err == nil {
		t.Error("windows=0 must fail")
	}
	if _, err := CalibrateL1(10, 10, -1, cfg); err == nil {
		t.Error("pHat<0 must fail")
	}
	if _, err := CalibrateL1(10, 10, 2, cfg); err == nil {
		t.Error("pHat>1 must fail")
	}
}

func TestCalibrateL1HonestPassRate(t *testing.T) {
	// The defining property: ~confidence fraction of honest sample sets fall
	// under epsilon. Use an independent stream for the check.
	const (
		m       = 10
		windows = 50
		p       = 0.9
	)
	cfg := CalibrationConfig{Seed: 3, Replicates: 1000, Confidence: 0.95}
	eps, err := CalibrateL1(m, windows, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(1234)
	b := MustBinomial(m, p)
	const trials = 2000
	pass := 0
	h := MustHistogram(m)
	for trial := 0; trial < trials; trial++ {
		h.Reset()
		for i := 0; i < windows; i++ {
			_ = h.Add(b.Sample(rng))
		}
		d, err := L1HistDistance(h, b)
		if err != nil {
			t.Fatal(err)
		}
		if d <= eps {
			pass++
		}
	}
	rate := float64(pass) / trials
	if rate < 0.92 || rate > 0.98 {
		t.Fatalf("honest pass rate = %v, want ~0.95", rate)
	}
}

func TestCalibratorCaching(t *testing.T) {
	c := NewCalibrator(CalibrationConfig{Seed: 4, Replicates: 100}, 0)
	e1, err := c.Threshold(10, 50, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if c.CacheSize() != 1 {
		t.Fatalf("cache size = %d, want 1", c.CacheSize())
	}
	// Same bucket (p within resolution, windows within geometric bucket).
	e2, err := c.Threshold(10, 51, 0.902)
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatalf("bucketed thresholds differ: %v vs %v", e1, e2)
	}
	if c.CacheSize() != 1 {
		t.Fatalf("cache grew to %d for same bucket", c.CacheSize())
	}
	// Distant p lands in a different bucket.
	if _, err := c.Threshold(10, 50, 0.5); err != nil {
		t.Fatal(err)
	}
	if c.CacheSize() != 2 {
		t.Fatalf("cache size = %d, want 2", c.CacheSize())
	}
}

func TestCalibratorConcurrent(t *testing.T) {
	c := NewCalibrator(CalibrationConfig{Seed: 5, Replicates: 50}, 0)
	done := make(chan error)
	for g := 0; g < 8; g++ {
		go func(g int) {
			_, err := c.Threshold(10, 20+g, 0.9)
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestCalibratorSingleFlight: askers that miss the same grid point together
// share one Monte-Carlo run — exactly one calibration completes — and get
// the same threshold.
func TestCalibratorSingleFlight(t *testing.T) {
	c := NewCalibrator(CalibrationConfig{Seed: 9, Replicates: 20000}, 0)
	const askers = 8
	start := make(chan struct{})
	got := make(chan float64, askers) // one send per asker
	for g := 0; g < askers; g++ {
		go func(g int) {
			<-start
			// Different queries, one grid point.
			eps, err := c.Threshold(10, 50+g%2, 0.9+float64(g)*1e-4)
			if err != nil {
				t.Error(err)
			}
			got <- eps
		}(g)
	}
	close(start)
	first := <-got
	for g := 1; g < askers; g++ {
		if eps := <-got; eps != first {
			t.Fatalf("asker got %v, another %v", eps, first)
		}
	}
	if c.CacheSize() != 1 {
		t.Fatalf("%d calibrations completed for one grid point", c.CacheSize())
	}
}

func TestCalibratorInvalidWindows(t *testing.T) {
	c := NewCalibrator(CalibrationConfig{Replicates: 10}, 0)
	if _, err := c.Threshold(10, 0, 0.9); err == nil {
		t.Fatal("windows=0 must fail")
	}
	if _, err := c.Threshold(10, 5, math.NaN()); err == nil {
		t.Fatal("pHat=NaN must fail")
	}
	if _, err := c.ThresholdAt(10, 5, 0.9, 1); err == nil {
		t.Fatal("confidence=1 must fail")
	}
}

func TestBucketWindows(t *testing.T) {
	tests := []struct {
		in int
	}{{1}, {2}, {4}, {5}, {10}, {100}, {1000}, {50000}}
	for _, tt := range tests {
		got := bucketWindows(tt.in)
		if got <= 0 {
			t.Errorf("bucketWindows(%d) = %d", tt.in, got)
		}
		// Bucket within 25% of the input (including grid rounding slack).
		ratio := float64(got) / float64(tt.in)
		if ratio < 0.75 || ratio > 1.35 {
			t.Errorf("bucketWindows(%d) = %d, ratio %v out of tolerance", tt.in, got, ratio)
		}
	}
	// Small values map to themselves.
	for w := 1; w <= 4; w++ {
		if bucketWindows(w) != w {
			t.Errorf("bucketWindows(%d) = %d, want identity", w, bucketWindows(w))
		}
	}
}

func TestCalibrateReestimateP(t *testing.T) {
	// Re-estimation mode must also produce a sane threshold, typically no
	// larger than the fixed-p mode (re-estimation absorbs mean error).
	fixed, err := CalibrateL1(10, 50, 0.9, CalibrationConfig{Seed: 6, Replicates: 400})
	if err != nil {
		t.Fatal(err)
	}
	re, err := CalibrateL1(10, 50, 0.9, CalibrationConfig{Seed: 6, Replicates: 400, ReestimateP: true})
	if err != nil {
		t.Fatal(err)
	}
	if re <= 0 || re >= 2 {
		t.Fatalf("reestimated epsilon = %v", re)
	}
	if re > fixed*1.25 {
		t.Fatalf("reestimated epsilon %v far above fixed %v", re, fixed)
	}
}

func TestCalibratorLargeWindowExtrapolation(t *testing.T) {
	c := NewCalibrator(CalibrationConfig{Seed: 7, Replicates: 100}, 0)
	c.setMaxWindows(64)
	base, err := c.Threshold(10, 64, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	big, err := c.Threshold(10, 64*4, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// 4x the windows -> threshold halves under the 1/sqrt(w) law.
	if math.Abs(big-base/2) > 1e-12 {
		t.Fatalf("extrapolated threshold = %v, want %v", big, base/2)
	}
	// Both served from one cached grid point.
	if c.CacheSize() != 1 {
		t.Fatalf("cache size = %d, want 1", c.CacheSize())
	}
}
