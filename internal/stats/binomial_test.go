package stats

import (
	"errors"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

// pmfOf is BinomialPMFInto into a fresh table.
func pmfOf(t testing.TB, n int, p float64) []float64 {
	t.Helper()
	pmf := make([]float64, n+1)
	if err := BinomialPMFInto(pmf, n, p); err != nil {
		t.Fatal(err)
	}
	return pmf
}

// TestNewBinomialValidation holds BinomialPMFInto to the domain of B(n, p).
func TestNewBinomialValidation(t *testing.T) {
	tests := []struct {
		name string
		n    int
		p    float64
		ok   bool
	}{
		{"valid", 10, 0.5, true},
		{"p zero", 10, 0, true},
		{"p one", 10, 1, true},
		{"n zero", 0, 0.5, true},
		{"negative n", -1, 0.5, false},
		{"p negative", 10, -0.1, false},
		{"p above one", 10, 1.1, false},
		{"p NaN", 10, math.NaN(), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := BinomialPMFInto(make([]float64, max(tt.n+1, 0)), tt.n, tt.p)
			if (err == nil) != tt.ok {
				t.Fatalf("BinomialPMFInto(B(%d, %v)) error = %v, want ok=%v", tt.n, tt.p, err, tt.ok)
			}
			if err != nil && !errors.Is(err, ErrInvalidDistribution) {
				t.Fatalf("error %v does not wrap ErrInvalidDistribution", err)
			}
		})
	}
}

func TestBinomialPMFKnownValues(t *testing.T) {
	// B(10, 0.9): closed-form reference values.
	pmf := pmfOf(t, 10, 0.9)
	tests := []struct {
		k    int
		want float64
	}{
		{10, math.Pow(0.9, 10)},                       // 0.34867844...
		{9, 10 * math.Pow(0.9, 9) * 0.1},              // 0.38742049...
		{8, 45 * math.Pow(0.9, 8) * math.Pow(0.1, 2)}, // 0.19371024...
		{0, math.Pow(0.1, 10)},
	}
	for _, tt := range tests {
		if got := pmf[tt.k]; math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("PMF(%d) = %v, want %v", tt.k, got, tt.want)
		}
	}
}

// TestBinomialPMFOutOfSupport: a table covers exactly [0, n], and a point
// mass leaves no stale entry of the buffer it is written over.
func TestBinomialPMFOutOfSupport(t *testing.T) {
	for _, size := range []int{5, 7} {
		if err := BinomialPMFInto(make([]float64, size), 5, 0.5); !errors.Is(err, ErrInvalidDistribution) {
			t.Errorf("B(5, .5) into %d entries: err = %v, want ErrInvalidDistribution", size, err)
		}
	}
	for _, p := range []float64{0, 1} {
		pmf := pmfOf(t, 5, 0.5)
		if err := BinomialPMFInto(pmf, 5, p); err != nil {
			t.Fatal(err)
		}
		for k, v := range pmf {
			want := 0.0
			if float64(k) == 5*p {
				want = 1
			}
			if v != want {
				t.Errorf("B(5, %v) pmf[%d] = %v, want %v", p, k, v, want)
			}
		}
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, tc := range []struct {
		n int
		p float64
	}{{1, 0.5}, {10, 0.9}, {10, 0.95}, {50, 0.01}, {200, 0.7}, {10, 0}, {10, 1}} {
		sum := 0.0
		for _, v := range pmfOf(t, tc.n, tc.p) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("B(%d,%v): PMF sums to %v", tc.n, tc.p, sum)
		}
	}
}

func TestBinomialPMFNormalisationProperty(t *testing.T) {
	f := func(nRaw uint8, pRaw uint16) bool {
		n := int(nRaw % 64)
		p := float64(pRaw) / math.MaxUint16
		sum := 0.0
		for _, v := range pmfOf(t, n, p) {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestBinomialCDFMonotone: the running sum of the table climbs to 1.
func TestBinomialCDFMonotone(t *testing.T) {
	prev := 0.0
	for k, v := range pmfOf(t, 30, 0.42) {
		c := prev + v
		if c < prev {
			t.Fatalf("CDF not monotone at k=%d: %v < %v", k, c, prev)
		}
		prev = c
	}
	if math.Abs(prev-1) > 1e-9 {
		t.Fatalf("CDF(n) = %v, want 1", prev)
	}
}

// TestBinomialMoments: the table's mean and variance are n·p and n·p·(1−p).
func TestBinomialMoments(t *testing.T) {
	mean, second := 0.0, 0.0
	for k, v := range pmfOf(t, 40, 0.3) {
		mean += float64(k) * v
		second += float64(k*k) * v
	}
	if want := 12.0; math.Abs(mean-want) > 1e-9 {
		t.Errorf("Mean = %v, want %v", mean, want)
	}
	if got, want := second-mean*mean, 8.4; math.Abs(got-want) > 1e-9 {
		t.Errorf("Variance = %v, want %v", got, want)
	}
}

func TestBinomialSampleMatchesPMF(t *testing.T) {
	// χ² goodness of fit between sampler and PMF.
	rng := NewRNG(99)
	const draws = 100000
	obs := make([]int64, 11)
	for i := 0; i < draws; i++ {
		obs[rng.Binomial(10, 0.9)]++
	}
	// Conservative bound: well under the χ² 0.999 quantile for <=10 dof.
	if stat := chiSquare(obs, pmfOf(t, 10, 0.9), 5); stat > 35 {
		t.Fatalf("sampler vs PMF χ² = %v, too large", stat)
	}
}

// chiSquare is Pearson's χ² statistic of observed counts against the
// expected probabilities, merging neighbouring cells until each expects at
// least minExpected draws (the validity rule of the χ² approximation).
func chiSquare(observed []int64, expected []float64, minExpected float64) float64 {
	var total int64
	for _, o := range observed {
		total += o
	}
	stat, accO, accE := 0.0, int64(0), 0.0
	flush := func() {
		if accE > 0 {
			diff := float64(accO) - accE
			stat += diff * diff / accE
		}
		accO, accE = 0, 0
	}
	for i := range observed {
		accO += observed[i]
		accE += expected[i] * float64(total)
		if accE >= minExpected {
			flush()
		}
	}
	flush()
	return stat
}

// TestBinomialSampleN: a batch of draws tallies every variate once, inside
// the support, and returns their sum.
func TestBinomialSampleN(t *testing.T) {
	tally := make([]int64, 11)
	sum := NewRNG(1).BinomialTally(tally, 10, 0.5, 500)
	var n, s int64
	for k, c := range tally {
		n += c
		s += int64(k) * c
	}
	if n != 500 || s != sum {
		t.Fatalf("BinomialTally: %d variates summing to %d, returned sum %d; want 500 variates", n, s, sum)
	}
}

// pmfByLgamma is B(n, p) in log space, three Lgamma calls per entry: the
// fill BinomialPMFInto had before it was platform-exact, kept as the
// reference its accuracy is measured against.
func pmfByLgamma(dst []float64, n int, p float64) {
	logP, logQ := math.Log(p), math.Log1p(-p)
	lgN, _ := math.Lgamma(float64(n) + 1)
	for k := 0; k <= n; k++ {
		lgK, _ := math.Lgamma(float64(k) + 1)
		lgNK, _ := math.Lgamma(float64(n-k) + 1)
		dst[k] = math.Exp(lgN - lgK - lgNK + float64(k)*logP + float64(n-k)*logQ)
	}
}

// distanceCases are fixed window histograms and p̂, with the bits of the
// L¹ distance a behaviour tester computes for them. The PMF is built with
// + − × ÷ alone, so these bits are the same on every GOARCH; a receiver of a
// verdict chain rebuilds each Distance from them, so a change here is a
// change to the wire (a new wire.VersionV2) as well as to every verdict.
var distanceCases = []struct {
	name string
	hist []int64
	p    float64
	want uint64
}{
	{"honest", []int64{0, 0, 0, 0, 0, 0, 0, 1, 4, 15, 30}, 472.0 / 500, 0x3fb67faf9c241a50},
	{"honest, short", []int64{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3}, 38.0 / 40, 0x3fe4e77a3a11ba37},
	{"below one half", []int64{1, 4, 6, 5, 3, 1, 0, 0, 0, 0, 0}, 57.0 / 200, 0x3fd028673c9f8520},
	{"one half", []int64{0, 0, 1, 2, 5, 6, 4, 1, 1, 0, 0}, 0.5, 0x3fcc666666666666},
	{"near zero", []int64{98, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 1.0 / 500, 0x3f4767b445b434be},
	{"near one", []int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 99}, 999.0 / 1000, 0x3f277fb1e21427aa},
	{"zero", []int64{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 0, 0},
	{"one", []int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5}, 1, 0},
	{"window of one", []int64{3, 9}, 0.75, 0},
	{"window of fifteen", []int64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3}, 136.0 / 150, 0x3fd13f989e320372},
	{"window of forty", append(make([]int64, 36), 1, 2, 1, 0, 0), 148.0 / 160, 0x3fe76681b9fde26b},
	{"window of 255", append(make([]int64, 250), 1, 0, 2, 0, 1, 1), 1270.0 / 1275, 0x3ff12557d1cfa436},
}

// TestBinomialPMFIntoBits holds the one PMF to exact values where IEEE-754
// arithmetic gives them, to the log-space fill within 1e-12 in L¹ for every
// window size a tester accepts, and to the distance bits of distanceCases —
// every distance, threshold and verdict downstream is a sum of its entries.
func TestBinomialPMFIntoBits(t *testing.T) {
	tiny := math.SmallestNonzeroFloat64
	for _, tc := range []struct {
		n    int
		p    float64
		want []float64
	}{
		{1, tiny, []float64{1, tiny}},
		{1, 1 - 0x1p-53, []float64{0x1p-53, 1 - 0x1p-53}},
		{1, 0.3, []float64{1 - 0.3, 0.3}},
		{2, 0.5, []float64{0.25, 0.5, 0.25}},
		{3, 0.5, []float64{1.0 / 8, 3.0 / 8, 3.0 / 8, 1.0 / 8}},
		{4, 0.5, []float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}},
	} {
		if got := pmfOf(t, tc.n, tc.p); !slices.Equal(got, tc.want) {
			t.Errorf("B(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}

	r := NewRNG(31)
	ps := []float64{tiny, 0x1p-1022, 0x1p-53, 1e-4, 0.01, 0.5, 0.9, 0.99, 1 - 1e-4, 1 - 0x1p-53}
	for i := 0; i < 500; i++ {
		ps = append(ps, r.Float64())
	}
	for _, n := range []int{1, 2, 5, 10, 20, 64, 100, 200, 255} {
		ref := make([]float64, n+1)
		worst := 0.0
		for _, p := range ps {
			if p == 0 {
				continue
			}
			got := pmfOf(t, n, p)
			pmfByLgamma(ref, n, p)
			gap := 0.0
			for k := range ref {
				gap += math.Abs(got[k] - ref[k])
			}
			if !(gap <= 1e-12) {
				t.Errorf("B(%d, %v): L¹ gap %g to the log-space fill", n, p, gap)
			}
			worst = max(worst, gap)
		}
		t.Logf("n=%d: worst L¹ gap %.2g", n, worst)
	}

	for _, tc := range distanceCases {
		pmf := pmfOf(t, len(tc.hist)-1, tc.p)
		var total int64
		for _, c := range tc.hist {
			total += c
		}
		d, err := L1CountsDistance(tc.hist, total, pmf)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(d); got != tc.want {
			t.Errorf("%s: %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
