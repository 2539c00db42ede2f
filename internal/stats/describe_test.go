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

// TestWilsonIntervalGoldenBits pins the bits of the interval an assessment
// carries (z = 1.96) over a grid of counts up to the codec's largest: a
// receiver rebuilds TrustLow and TrustHigh from the record and good counts
// on the wire, so these bits are the protocol, on every platform (GOARCH=386
// included; describe.go keeps the half-width out of any fused multiply-add).
func TestWilsonIntervalGoldenBits(t *testing.T) {
	for _, tc := range []struct {
		good, n int
		lo, hi  uint64
	}{
		{0, 1, 0x0000000000000000, 0x3fe963ff52bd2a78},                   // [0, 0.7934567085261071]
		{1, 1, 0x3fca7002b50b561e, 0x3ff0000000000000},                   // [0.2065432914738929, 1]
		{0, 2, 0x0000000000000000, 0x3fe50b49f968af93},                   // [0, 0.6576280471103807]
		{1, 2, 0x3fb83307a8e79370, 0x3fecf99f0ae30d92},                   // [0.09452865480086614, 0.9054713451991339]
		{2, 2, 0x3fd5e96c0d2ea0d9, 0x3ff0000000000000},                   // [0.34237195288961925, 1]
		{0, 10, 0x0000000000000000, 0x3fd1c337d70b73bc},                  // [0, 0.2775401687666166]
		{1, 10, 0x3f924e053e3efc80, 0x3fd9ddb2be8ba001},                  // [0.01787574951572113, 0.4041563854975721]
		{5, 10, 0x3fce48915b93836e, 0x3fe86ddba91b1f24},                  // [0.23658959361548731, 0.7634104063845126]
		{9, 10, 0x3fe31126a0ba2fff, 0x3fef6d8fd60e081b},                  // [0.5958436145024278, 0.9821242504842788]
		{10, 10, 0x3fe71e64147a4622, 0x3ff0000000000000},                 // [0.7224598312333834, 1]
		{0, 200, 0x0000000000000000, 0x3f934c5e0c515109},                 // [0, 0.018846005918320894]
		{1, 200, 0x3f4cf05d922a7b20, 0x3f9c70e46c6d417f},                 // [0.0008831459893662054, 0.02777439986977148]
		{100, 200, 0x3fdb9b65636c5953, 0x3fe2324d4e49d357},               // [0.43135962209034523, 0.5686403779096548]
		{180, 200, 0x3feb380f18e65b0c, 0x3fede60826cacfbc},               // [0.8505931364369146, 0.9343300588284289]
		{199, 200, 0x3fef1c78dc9c95f5, 0x3feff8c3e89b7563},               // [0.9722256001302286, 0.999116854010634]
		{200, 200, 0x3fef659d0f9d7578, 0x3ff0000000000000},               // [0.9811539940816791, 1]
		{0, 5000, 0x0000000000000000, 0x3f49282feaa1cc1b},                // [0, 0.000767730137580694]
		{1, 5000, 0x3f02828a4708c050, 0x3f528c72a10d6e64},                // [3.530487527247993e-05, 0.0011321181702531819]
		{2500, 5000, 0x3fdf1d043b0f22cd, 0x3fe0717de2786e99},             // [0.48614602820866254, 0.5138539717913374]
		{4500, 5000, 0x3fec86248eea167f, 0x3fed0e6d011a2f8d},             // [0.89137485421152, 0.9080109616784157]
		{4999, 5000, 0x3feff6b9c6af794a, 0x3fefffb5f5d6e3de},             // [0.998867881829747, 0.9999646951247276]
		{5000, 5000, 0x3feff9b5f405578e, 0x3ff0000000000000},             // [0.9992322698624194, 1]
		{0, 2147483647, 0x0000000000000000, 0x3e1ebb98c733d920},          // [0, 1.7888843989543179e-09]
		{1, 2147483647, 0x3dd69835346b22a0, 0x3e26a90ab9c91c4a},          // [8.219853713019333e-11, 2.6380084352072557e-09]
		{1073741823, 2147483647, 0x3fdfffa74caf3bff, 0x3fe0002c59686200}, // [0.4999788521644745, 0.5000211473698641]
		{1932735282, 2147483647, 0x3fecccb230389f1b, 0x3feccce76875e37b}, // [0.899987310583103, 0.9000126877063929]
		{2147483646, 2147483647, 0x3feffffffe956f55, 0x3feffffffff4b3e7}, // [0.9999999973619916, 0.9999999999178016]
		{2147483647, 2147483647, 0x3fefffffff0a233b, 0x3ff0000000000000}, // [0.9999999982111157, 1]
	} {
		lo, hi, err := WilsonInterval(tc.good, tc.n, 1.96)
		if err != nil {
			t.Fatalf("%d of %d: %v", tc.good, tc.n, err)
		}
		if math.Float64bits(lo) != tc.lo || math.Float64bits(hi) != tc.hi {
			t.Errorf("%d of %d: [%#016x, %#016x], want [%#016x, %#016x]",
				tc.good, tc.n, math.Float64bits(lo), math.Float64bits(hi), tc.lo, tc.hi)
		}
	}
}
