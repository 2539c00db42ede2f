package stats

import (
	"errors"
	"math"
	"sync"
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

// pmfByLgammaPerK is BinomialPMFInto's fill as it stood before the
// log-choose table: three Lgamma calls per entry, one expression.
func pmfByLgammaPerK(dst []float64, n int, p float64) {
	logP, logQ := math.Log(p), math.Log1p(-p)
	lgN, _ := math.Lgamma(float64(n) + 1)
	for k := 0; k <= n; k++ {
		lgK, _ := math.Lgamma(float64(k) + 1)
		lgNK, _ := math.Lgamma(float64(n-k) + 1)
		logPMF := lgN - lgK - lgNK + float64(k)*logP + float64(n-k)*logQ
		dst[k] = math.Exp(logPMF)
	}
}

// TestBinomialPMFIntoBits holds the cached fill to the uncached one bit for
// bit — every distance, threshold and verdict downstream is a sum of these
// entries — for cached n (first touch and hit) and n beyond the table.
func TestBinomialPMFIntoBits(t *testing.T) {
	r := NewRNG(31)
	for _, n := range []int{1, 5, 10, 20, 64, 100, len(logChooseTables) - 1, len(logChooseTables), 300} {
		got, want := make([]float64, n+1), make([]float64, n+1)
		ps := []float64{math.SmallestNonzeroFloat64, 0x1p-53, 0.01, 0.5, 0.9, 0.99, 1 - 0x1p-53}
		for i := 0; i < 2000; i++ {
			ps = append(ps, r.Float64())
		}
		for _, p := range ps {
			if p == 0 {
				continue
			}
			if err := BinomialPMFInto(got, n, p); err != nil {
				t.Fatal(err)
			}
			pmfByLgammaPerK(want, n, p)
			for k := range want {
				if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
					t.Fatalf("B(%d, %v) pmf[%d] = %#x (%v), uncached fill = %#x (%v)",
						n, p, k, math.Float64bits(got[k]), got[k], math.Float64bits(want[k]), want[k])
				}
			}
		}
	}
}

// TestLogChooseConcurrentFirstTouch races first touches of one table (run
// under -race): every caller must see a complete table equal to the rest.
func TestLogChooseConcurrentFirstTouch(t *testing.T) {
	const n = 77 // no other test in the package uses it
	var wg sync.WaitGroup
	tables := make([][]float64, 8)
	for i := range tables {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tables[i] = logChoose(n)
		}(i)
	}
	wg.Wait()
	for i, lc := range tables {
		if len(lc) != n+1 {
			t.Fatalf("caller %d: table length %d, want %d", i, len(lc), n+1)
		}
		for k := range lc {
			if math.Float64bits(lc[k]) != math.Float64bits(tables[0][k]) {
				t.Fatalf("caller %d: lc[%d] = %v, caller 0 saw %v", i, k, lc[k], tables[0][k])
			}
		}
	}
}
