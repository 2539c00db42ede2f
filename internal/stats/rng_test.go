package stats

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d vs %d", i, av, bv)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a, b := NewRNG(1), NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical values in 100 draws", same)
	}
}

func TestRNGZeroSeedValid(t *testing.T) {
	r := NewRNG(0)
	seen := make(map[uint64]bool)
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("Intn(%d): value %d drawn %d times, want ~%v", n, v, c, want)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGBernoulli(t *testing.T) {
	r := NewRNG(9)
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 0}, {1, 1}, {-0.5, 0}, {1.5, 1}, {0.3, 0.3}, {0.9, 0.9},
	}
	for _, tt := range tests {
		const n = 50000
		hits := 0
		for i := 0; i < n; i++ {
			if r.Bernoulli(tt.p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-tt.want) > 0.01 {
			t.Errorf("Bernoulli(%v) rate = %v, want ~%v", tt.p, got, tt.want)
		}
	}
}

func TestRNGBinomialSmall(t *testing.T) {
	r := NewRNG(13)
	const n, p, draws = 10, 0.9, 50000
	sum := 0
	for i := 0; i < draws; i++ {
		v := r.Binomial(n, p)
		if v < 0 || v > n {
			t.Fatalf("Binomial(%d,%v) = %d out of range", n, p, v)
		}
		sum += v
	}
	mean := float64(sum) / draws
	if math.Abs(mean-n*p) > 0.05 {
		t.Fatalf("Binomial(%d,%v) mean = %v, want ~%v", n, p, mean, n*p)
	}
}

func TestRNGBinomialLarge(t *testing.T) {
	r := NewRNG(17)
	const n, p, draws = 500, 0.3, 5000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < draws; i++ {
		v := float64(r.Binomial(n, p))
		sum += v
		sumsq += v * v
	}
	mean := sum / draws
	variance := sumsq/draws - mean*mean
	if math.Abs(mean-n*p) > 1.0 {
		t.Fatalf("mean = %v, want ~%v", mean, n*p)
	}
	wantVar := n * p * (1 - p)
	if math.Abs(variance-wantVar) > 0.15*wantVar {
		t.Fatalf("variance = %v, want ~%v", variance, wantVar)
	}
}

func TestRNGBinomialEdges(t *testing.T) {
	r := NewRNG(19)
	if got := r.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d, want 0", got)
	}
	if got := r.Binomial(10, 0); got != 0 {
		t.Errorf("Binomial(10, 0) = %d, want 0", got)
	}
	if got := r.Binomial(10, 1); got != 10 {
		t.Errorf("Binomial(10, 1) = %d, want 10", got)
	}
}

func TestRNGBinomialVeryLargeN(t *testing.T) {
	// Exercises the underflow-splitting path: (1-p)^n underflows for
	// n=100000, p=0.5.
	r := NewRNG(23)
	const n, p = 100000, 0.5
	v := r.Binomial(n, p)
	if v < 0 || v > n {
		t.Fatalf("Binomial(%d,%v) = %d out of range", n, p, v)
	}
	if math.Abs(float64(v)-n*p) > 10*math.Sqrt(n*p*(1-p)) {
		t.Fatalf("Binomial(%d,%v) = %d implausibly far from mean %v", n, p, v, n*p)
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(29)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGShuffleIsPermutation(t *testing.T) {
	r := NewRNG(31)
	xs := make([]int, 100)
	for i := range xs {
		xs[i] = i
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, 100)
	for _, v := range xs {
		if seen[v] {
			t.Fatalf("shuffle duplicated value %d", v)
		}
		seen[v] = true
	}
}

func TestRNGSample(t *testing.T) {
	r := NewRNG(37)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(50)
		k := r.Intn(n + 1)
		s := r.Sample(n, k)
		if len(s) != k {
			t.Fatalf("Sample(%d,%d) returned %d values", n, k, len(s))
		}
		for i, v := range s {
			if v < 0 || v >= n {
				t.Fatalf("Sample(%d,%d) value %d out of range", n, k, v)
			}
			if i > 0 && s[i-1] >= v {
				t.Fatalf("Sample(%d,%d) not strictly increasing: %v", n, k, s)
			}
		}
	}
}

func TestRNGSamplePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(2,3) did not panic")
		}
	}()
	NewRNG(1).Sample(2, 3)
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(41)
	child := parent.Split()
	// The child stream must differ from the parent's continuation.
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and child streams matched %d/100 draws", same)
	}
}

func TestRNGIntnLemireUnbiasedSmallN(t *testing.T) {
	// n=3 exercises the rejection path; verify no value is starved.
	r := NewRNG(43)
	counts := [3]int{}
	for i := 0; i < 30000; i++ {
		counts[r.Intn(3)]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(3): value %d drawn %d/30000 times", v, c)
		}
	}
}

// binomialByFloatCompare is RNG.Binomial as it stood before the integer
// threshold: a Float64() < p branch per trial for n <= 64, CDF inversion
// above. It is the reference stream the kernels must reproduce.
func binomialByFloatCompare(r *RNG, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		k := 0
		for i := 0; i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	u := r.Float64()
	pmf := math.Pow(1-p, float64(n))
	if pmf == 0 {
		half := n / 2
		return binomialByFloatCompare(r, half, p) + binomialByFloatCompare(r, n-half, p)
	}
	cdf := pmf
	k := 0
	for u > cdf && k < n {
		k++
		pmf *= (float64(n-k+1) / float64(k)) * (p / (1 - p))
		cdf += pmf
	}
	return k
}

func TestBinomialTallyMatchesBinomial(t *testing.T) {
	ps := []float64{
		0, 1, 0.01, 0.37, 0.5, 0.9, 0.95, 0.99,
		math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-53, 0x1p-52, 1 - 0x1p-53, 1 - 0x1p-52,
		-0.3, math.Copysign(0, -1), 1.5, math.Inf(1), math.Inf(-1),
	}
	ns := []int{-1, 0, 1, 2, 10, 63, 64, 65, 70, 200, 5000}
	pick := NewRNG(101)
	for trial := 0; trial < 400; trial++ {
		n := ns[pick.Intn(len(ns))]
		p := pick.Float64()
		if trial%2 == 0 {
			p = ps[pick.Intn(len(ps))]
		}
		draws := pick.Intn(40)
		seed := pick.Uint64()

		size := 1
		if n > 0 {
			size = n + 1
		}
		ref, one, batch := NewRNG(seed), NewRNG(seed), NewRNG(seed)
		wantTally, gotTally := make([]int64, size), make([]int64, size)
		var wantSum int64
		for i := 0; i < draws; i++ {
			want := binomialByFloatCompare(ref, n, p)
			if got := one.Binomial(n, p); got != want {
				t.Fatalf("n=%d p=%v seed=%d draw %d: Binomial = %d, float-compare reference = %d", n, p, seed, i, got, want)
			}
			wantTally[want]++
			wantSum += int64(want)
		}
		gotSum := batch.BinomialTally(gotTally, n, p, draws)
		if gotSum != wantSum {
			t.Fatalf("n=%d p=%v seed=%d draws=%d: tally sum = %d, want %d", n, p, seed, draws, gotSum, wantSum)
		}
		for k := range wantTally {
			if gotTally[k] != wantTally[k] {
				t.Fatalf("n=%d p=%v seed=%d draws=%d: tally[%d] = %d, want %d", n, p, seed, draws, k, gotTally[k], wantTally[k])
			}
		}
		// Same stream position: the three generators stay in lockstep.
		want := ref.Uint64()
		if a, b := one.Uint64(), batch.Uint64(); a != want || b != want {
			t.Fatalf("n=%d p=%v seed=%d draws=%d: next Uint64 = %#x (Binomial), %#x (BinomialTally), want %#x", n, p, seed, draws, a, b, want)
		}
	}
}

// TestUniformThresholdMatchesFloatCompare checks the equivalence the integer
// compare rests on at the only places it could break: the 53-bit values
// around p·2^53, where random streams almost never land.
func TestUniformThresholdMatchesFloatCompare(t *testing.T) {
	ps := []float64{
		math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-53, 0x1p-52, 3 * 0x1p-53, 0.01, 0.1, 0.37,
		0.5, 0.5 + 0x1p-53, 0.9, 0.95, 0.99, 1 - 0x1p-52, 1 - 0x1p-53,
	}
	r := NewRNG(5)
	for i := 0; i < 2000; i++ {
		ps = append(ps, r.Float64(), math.Ldexp(r.Float64(), -r.Intn(60)))
	}
	const top = uint64(1)<<53 - 1
	for _, p := range ps {
		if !(p > 0 && p < 1) {
			continue
		}
		thr := uniformThreshold(p)
		near := uint64(p * (1 << 53))
		for _, v := range []uint64{0, 1, near - 2, near - 1, near, near + 1, near + 2, top - 1, top} {
			if v > top { // near − 2 wrapped, or near + 2 past the 53 bits
				continue
			}
			byFloat := float64(v)/(1<<53) < p
			byInt := (v-thr)>>63 == 1
			if byFloat != byInt || byInt != (v < thr) {
				t.Fatalf("p=%v (%#x) v=%d thr=%d: float compare %v, integer compare %v", p, math.Float64bits(p), v, thr, byFloat, byInt)
			}
		}
	}
}

// NaN is not a probability: both entry points return 0 successes and leave
// the stream alone (the float compare used to burn n uniforms to say 0;
// BinomialPMFInto and CalibrateL1 reject NaN, so no caller's stream moved).
func TestBinomialNaNDrawsNothing(t *testing.T) {
	for _, n := range []int{10, 64, 70} {
		r, fresh := NewRNG(7), NewRNG(7)
		if got := r.Binomial(n, math.NaN()); got != 0 {
			t.Errorf("Binomial(%d, NaN) = %d, want 0", n, got)
		}
		tally := make([]int64, n+1)
		if sum := r.BinomialTally(tally, n, math.NaN(), 5); sum != 0 || tally[0] != 5 {
			t.Errorf("BinomialTally(%d, NaN, 5) = %d with tally[0] = %d, want 0 and 5", n, sum, tally[0])
		}
		if r.Uint64() != fresh.Uint64() {
			t.Errorf("n=%d: a NaN draw consumed uniforms", n)
		}
	}
}
