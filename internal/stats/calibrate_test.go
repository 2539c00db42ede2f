package stats

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
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
	for _, bad := range []CalibrationConfig{{Replicates: -5}, {Replicates: 10, Confidence: 1.5}} {
		if _, err := CalibrateL1(10, 10, 0.9, bad); !errors.Is(err, ErrInvalidDistribution) {
			t.Errorf("CalibrateL1 with %+v: err = %v, want ErrInvalidDistribution", bad, err)
		}
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
	pmf := make([]float64, m+1)
	if err := BinomialPMFInto(pmf, m, p); err != nil {
		t.Fatal(err)
	}
	const trials = 2000
	pass := 0
	tally := make([]int64, m+1)
	for trial := 0; trial < trials; trial++ {
		clear(tally)
		for i := 0; i < windows; i++ {
			tally[rng.Binomial(m, p)]++
		}
		d, err := L1CountsDistance(tally, windows, pmf)
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
	if _, err := c.Plane(10, 1); err == nil {
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

// TestGridPointOf: the grid point of a query is its window count's bucket,
// its p̂ over the resolution rounded, and past the calibrated windows the
// count itself; queries of one plane at one grid point get one ε, bit for
// bit, which is what a wire receiver that keys thresholds on it relies on.
func TestGridPointOf(t *testing.T) {
	for w := 1; w <= DefaultMaxCalibrationWindows; w++ {
		g := GridPointOf(w, 0.5, DefaultPResolution)
		if gridBuckets[g.Window] != bucketWindows(w) || g.Scaled != 0 || g.P != 50 {
			t.Fatalf("GridPointOf(%d) = %+v, bucket %d; want bucket %d", w, g, gridBuckets[g.Window], bucketWindows(w))
		}
	}
	last := len(gridBuckets) - 1
	for _, tc := range []struct {
		w    int
		p    float64
		res  float64
		want GridPoint
	}{
		{4097, 0.9, 0.01, GridPoint{Window: last, P: 90, Scaled: 4097}},
		{1 << 20, 0.9, 0.01, GridPoint{Window: last, P: 90, Scaled: 1 << 20}},
		{3, -0.5, 0.01, GridPoint{Window: 2, P: 0}},
		{3, 1.5, 0.01, GridPoint{Window: 2, P: 100}},
		{3, 0.905, 0.02, GridPoint{Window: 2, P: 45}},
		{3, 0.915, 0.02, GridPoint{Window: 2, P: 46}},
	} {
		if got := GridPointOf(tc.w, tc.p, tc.res); got != tc.want {
			t.Errorf("GridPointOf(%d, %v, %v) = %+v, want %+v", tc.w, tc.p, tc.res, got, tc.want)
		}
	}
	c := NewCalibrator(CalibrationConfig{Seed: 3, Replicates: 50}, 0)
	plane, err := c.Plane(10, DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	bits := map[GridPoint]uint64{}
	for w := 1; w <= 60; w++ {
		for g := 0; g <= 10*w; g++ {
			p := float64(g) / float64(10*w)
			eps, err := plane.Threshold(w, p)
			if err != nil {
				t.Fatal(err)
			}
			pt := GridPointOf(w, p, DefaultPResolution)
			if b, ok := bits[pt]; ok && b != math.Float64bits(eps) {
				t.Fatalf("%d windows at %v: ε %v, another query at %+v got %v", w, p, eps, pt, math.Float64frombits(b))
			}
			bits[pt] = math.Float64bits(eps)
		}
	}
}

func TestCalibratorLargeWindowExtrapolation(t *testing.T) {
	c := NewCalibrator(CalibrationConfig{Seed: 7, Replicates: 100}, 0)
	base, err := c.Threshold(10, DefaultMaxCalibrationWindows, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	big, err := c.Threshold(10, DefaultMaxCalibrationWindows*4, 0.9)
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

// TestCalibrateL1GoldenBits pins ε bit for bit. The draws were recorded
// before the tally kernel, when each window was one Binomial variate added to
// a histogram: the calibration stream is part of the reproduction contract
// (ADR 0007), so a cheaper kernel must land on the same bits. The values were
// re-pinned once, on the same draws, when the PMF became platform-exact:
// since then they are the same on every GOARCH.
func TestCalibrateL1GoldenBits(t *testing.T) {
	def := CalibrationConfig{Seed: 1}
	cases := []struct {
		m, windows int
		p          float64
		cfg        CalibrationConfig
		want       uint64
	}{
		{10, 4, 0, def, 0x0},
		{10, 4, 0.01, def, 0x3fea274b187171fd},
		{10, 4, 0.37, def, 0x3ff5e317c820ca71},
		{10, 4, 0.9, def, 0x3ff30170f4b837e4},
		{10, 4, 0.99, def, 0x3fdf77ef8ddbc489},
		{10, 4, 1, def, 0x0},
		{10, 5, 0, def, 0x0},
		{10, 5, 0.01, def, 0x3fe3c0e4b20b0b97},
		{10, 5, 0.37, def, 0x3ff47f7b094e5773},
		{10, 5, 0.9, def, 0x3ff16aa2efbaaab9},
		{10, 5, 0.99, def, 0x3fe3c0e4b20b0b95},
		{10, 5, 1, def, 0x0},
		{10, 47, 0, def, 0x0},
		{10, 47, 0.01, def, 0x3fc4303cb8ebe89d},
		{10, 47, 0.37, def, 0x3fdc164c8513a363},
		{10, 47, 0.9, def, 0x3fd65a48c7341d46},
		{10, 47, 0.99, def, 0x3fc4303cb8ebe89c},
		{10, 47, 1, def, 0x0},
		{10, 542, 0, def, 0x0},
		{10, 542, 0.01, def, 0x3fa97b4e56e9c7e6},
		{10, 542, 0.37, def, 0x3fc087a3e9db0d5b},
		{10, 542, 0.9, def, 0x3fbb437b2e3b13e5},
		{10, 542, 0.99, def, 0x3fa9a55f6fad7101},
		{10, 542, 1, def, 0x0},
		{10, 4096, 0, def, 0x0},
		{10, 4096, 0.01, def, 0x3f9218c3df27736c},
		{10, 4096, 0.37, def, 0x3fa878c6c489d86e},
		{10, 4096, 0.9, def, 0x3fa3a81147bdbc2e},
		{10, 4096, 0.99, def, 0x3f932dc51d732955},
		{10, 4096, 1, def, 0x0},
		{10, 47, 0.9, CalibrationConfig{Seed: 1, Confidence: 0.999}, 0x3fe039637c48612b},
		{64, 20, 0.37, def, 0x3fedf6af205c9890}, // largest n drawn by direct simulation
		{70, 47, 0.9, def, 0x3fe0f1e9fe5c6c7e},  // n > 64: CDF inversion per variate
	}
	for _, c := range cases {
		eps, err := CalibrateL1(c.m, c.windows, c.p, c.cfg)
		if err != nil {
			t.Fatalf("CalibrateL1(%d, %d, %v, %+v): %v", c.m, c.windows, c.p, c.cfg, err)
		}
		if got := math.Float64bits(eps); got != c.want {
			t.Errorf("CalibrateL1(%d, %d, %v, %+v) = %#x (%v), want %#x (%v)",
				c.m, c.windows, c.p, c.cfg, got, eps, c.want, math.Float64frombits(c.want))
		}
	}

	// Through the grid: beyond DefaultMaxCalibrationWindows (the 4096-window
	// point times the 1/√w factor), and a query that buckets to (47, 0.9).
	cal := NewCalibrator(def, 0)
	for _, c := range []struct {
		windows int
		want    uint64
	}{
		{3*DefaultMaxCalibrationWindows + 17, 0x3f96dc1d1e0e0f88},
		{49, 0x3fd65a48c7341d46},
	} {
		eps, err := cal.Threshold(10, c.windows, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(eps); got != c.want {
			t.Errorf("Threshold(10, %d, 0.9) = %#x (%v), want %#x", c.windows, got, eps, c.want)
		}
	}
}

// TestCalibrateL1Allocations: a grid point allocates its distances, with
// the PMF in the same block, and nothing else — on the fused lanes, the
// unpacked lanes, the scalar loop and at p̂ = 1. A window past
// maxStackTally adds its scalar tally.
func TestCalibrateL1Allocations(t *testing.T) {
	cfg := CalibrationConfig{Seed: 9}
	for _, c := range []struct {
		m, windows int
		p          float64
		want       float64
	}{
		{10, 8, 0.93, 1},
		{10, 50, 0.93, 1},
		{20, 8, 0.93, 1},
		{10, 8, 1, 1},
		{maxStackTally + 6, 4, 0.9, 2},
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := CalibrateL1(c.m, c.windows, c.p, cfg); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != c.want {
			t.Errorf("CalibrateL1(%d, %d, %v): %v allocs per call, want %v", c.m, c.windows, c.p, allocs, c.want)
		}
	}
}

// TestSelectQuantileIsSortQuantile: taking ε by selection lands on the bits
// a full sort and Quantile do, over a sweep of grid points on the kernel
// CalibrateL1 picks and on the scalar one, and over samples built to meet
// the selection's edges: ties, sorted and reversed runs, a single value.
func TestSelectQuantileIsSortQuantile(t *testing.T) {
	check := func(name string, xs []float64, q float64) {
		t.Helper()
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		want := Quantile(sorted, q)
		if got := SelectQuantile(slices.Clone(xs), q); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s, q=%v: selected %v (%#x), sorted %v (%#x)", name, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	cfg := CalibrationConfig{Seed: 7}.withDefaults()
	for _, m := range []int{5, 10} {
		for _, windows := range []int{1, 4, 47, 200} {
			for _, p := range []float64{0.01, 0.5, 0.9, 0.97, 0.99} {
				pt, err := newCalibPoint(m, windows, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				fills := map[string]func([]float64) error{"scalar": pt.fillScalar}
				if takesLanes(m, windows, cfg.Replicates, p) {
					fills["lanes"] = pt.fillLanes
				}
				for kernel, fill := range fills {
					dists := make([]float64, cfg.Replicates)
					if err := fill(dists); err != nil {
						t.Fatal(err)
					}
					for _, q := range []float64{cfg.Confidence, 0.5, 0.99, 0, 1} {
						check(fmt.Sprintf("%s m=%d w=%d p=%v", kernel, m, windows, p), dists, q)
					}
				}
			}
		}
	}
	rising := make([]float64, 100)
	for i := range rising {
		rising[i] = float64(i / 3)
	}
	falling := slices.Clone(rising)
	slices.Reverse(falling)
	same := make([]float64, 50)
	for i := range same {
		same[i] = 3
	}
	for name, xs := range map[string][]float64{
		"one":      {0.25},
		"two":      {2, 1},
		"ties":     {1, 1, 1, 1, 1, 0, 2, 1, 1},
		"rising":   rising,
		"falling":  falling,
		"all same": same,
	} {
		for _, q := range []float64{0, 0.3, 0.5, 0.95, 1} {
			check(name, xs, q)
		}
	}
}
