package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestDescribe(t *testing.T) {
	s, err := Describe([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("Describe = %+v", s)
	}
	if math.Abs(s.Variance-2.5) > 1e-12 {
		t.Fatalf("Variance = %v, want 2.5", s.Variance)
	}
}

func TestDescribeEmpty(t *testing.T) {
	if _, err := Describe(nil); err == nil {
		t.Fatal("empty sample must fail")
	}
}

func TestDescribeSingle(t *testing.T) {
	s, err := Describe([]float64{7})
	if err != nil {
		t.Fatal(err)
	}
	if s.Variance != 0 || s.Median != 7 || s.P05 != 7 || s.P95 != 7 {
		t.Fatalf("Describe single = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4}
	tests := []struct {
		q    float64
		want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {-1, 1}, {2, 4},
		{1.0 / 3.0, 2},
	}
	for _, tt := range tests {
		if got := Quantile(sorted, tt.q); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("Quantile of empty must be NaN")
	}
	if Quantile([]float64{42}, 0.3) != 42 {
		t.Error("Quantile of singleton must be the value")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, q1, q2 float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		sort.Float64s(xs)
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return Quantile(xs, a) <= Quantile(xs, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) must be 0")
	}
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("Mean = %v, want 3", got)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi, err := WilsonInterval(90, 100, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	// Known reference: 90/100 at 95% -> approx [0.825, 0.944].
	if math.Abs(lo-0.825) > 0.01 || math.Abs(hi-0.944) > 0.01 {
		t.Fatalf("interval = [%v, %v]", lo, hi)
	}
	if lo >= 0.9 || hi <= 0.9 {
		t.Fatalf("interval [%v, %v] must contain the point estimate", lo, hi)
	}
	// Extremes stay in [0, 1] and are non-degenerate.
	lo, hi, err = WilsonInterval(10, 10, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if hi != 1 || lo >= 1 || lo < 0.6 {
		t.Fatalf("all-good interval = [%v, %v]", lo, hi)
	}
	lo, hi, err = WilsonInterval(0, 10, 1.96)
	if err != nil {
		t.Fatal(err)
	}
	if lo != 0 || hi <= 0 {
		t.Fatalf("all-bad interval = [%v, %v]", lo, hi)
	}
}

func TestWilsonIntervalValidation(t *testing.T) {
	for _, tc := range []struct {
		good, n int
		z       float64
	}{{-1, 10, 1.96}, {11, 10, 1.96}, {5, 0, 1.96}, {5, 10, 0}, {5, 10, -1}} {
		if _, _, err := WilsonInterval(tc.good, tc.n, tc.z); err == nil {
			t.Errorf("WilsonInterval(%d,%d,%v) must fail", tc.good, tc.n, tc.z)
		}
	}
}

func TestWilsonIntervalShrinksWithN(t *testing.T) {
	lo1, hi1, _ := WilsonInterval(9, 10, 1.96)
	lo2, hi2, _ := WilsonInterval(900, 1000, 1.96)
	if (hi2 - lo2) >= (hi1 - lo1) {
		t.Fatalf("interval did not shrink: %v vs %v", hi2-lo2, hi1-lo1)
	}
}
