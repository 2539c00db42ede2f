package stats

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// ErrInvalidDistribution reports parameters outside the valid domain of a
// distribution constructor.
var ErrInvalidDistribution = errors.New("stats: invalid distribution parameters")

// Binomial is the distribution B(n, p) of the number of successes in n
// independent Bernoulli(p) trials. It is the honest-player model of the
// paper: the number of good transactions in a window of n transactions by a
// server with trustworthiness p follows B(n, p).
//
// The zero value is not useful; construct with NewBinomial.
type Binomial struct {
	n int
	p float64

	// pmf caches P(X = k) for k = 0..n; computed once at construction in
	// log space for numerical stability, so repeated distance computations
	// are O(n) table lookups.
	pmf []float64
}

// NewBinomial returns the binomial distribution B(n, p). It returns
// ErrInvalidDistribution if n < 0 or p is outside [0, 1] or NaN.
func NewBinomial(n int, p float64) (*Binomial, error) {
	b := &Binomial{n: n, p: p, pmf: make([]float64, n+1)}
	if err := BinomialPMFInto(b.pmf, n, p); err != nil {
		return nil, err
	}
	return b, nil
}

// MustBinomial is NewBinomial that panics on invalid parameters. Reserve it
// for statically known-valid parameters (tests, package defaults).
func MustBinomial(n int, p float64) *Binomial {
	b, err := NewBinomial(n, p)
	if err != nil {
		panic(err)
	}
	return b
}

// BinomialPMFInto fills dst, which must have length n+1, with the PMF of
// B(n, p), computed in log space for numerical stability. NewBinomial
// delegates to it, so a caller-managed buffer (e.g. the incremental
// accumulator's PMF arena) holds bit-identical values to a freshly
// constructed Binomial's table — there is exactly one fill code path.
func BinomialPMFInto(dst []float64, n int, p float64) error {
	if n < 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("%w: B(%d, %v)", ErrInvalidDistribution, n, p)
	}
	if len(dst) != n+1 {
		return fmt.Errorf("%w: pmf buffer length %d for B(%d,·)", ErrInvalidDistribution, len(dst), n)
	}
	switch {
	case p == 0:
		clear(dst)
		dst[0] = 1
	case p == 1:
		clear(dst)
		dst[n] = 1
	default:
		logP, logQ := math.Log(p), math.Log1p(-p)
		for k, lc := range logChoose(n) {
			dst[k] = math.Exp(lc + float64(k)*logP + float64(n-k)*logQ)
		}
	}
	return nil
}

// logChooseTables caches logChoose(n) for the window sizes in use: the three
// Lgamma terms of a PMF entry depend on (n, k) only, and were two thirds of
// a fill's time. A pure function of n, so racing builders publish equal
// tables and a hit is one atomic load — no lock, nothing per server (ADR
// 0002). Larger n are computed per call, as every n used to be.
var logChooseTables [257]atomic.Pointer[[]float64]

// logChoose returns log C(n, k) for k = 0..n, each as (lgN − lgK) − lgNK in
// that order, so BinomialPMFInto's sum reproduces the uncached expression
// lgN − lgK − lgNK + k·logP + (n−k)·logQ bit for bit.
func logChoose(n int) []float64 {
	if n < len(logChooseTables) {
		if lc := logChooseTables[n].Load(); lc != nil {
			return *lc
		}
	}
	lc := make([]float64, n+1)
	lgN, _ := math.Lgamma(float64(n) + 1)
	for k := range lc {
		lgK, _ := math.Lgamma(float64(k) + 1)
		lgNK, _ := math.Lgamma(float64(n-k) + 1)
		lc[k] = lgN - lgK - lgNK
	}
	if n < len(logChooseTables) {
		logChooseTables[n].Store(&lc)
	}
	return lc
}

// N returns the number of trials.
func (b *Binomial) N() int { return b.n }

// P returns the per-trial success probability.
func (b *Binomial) P() float64 { return b.p }

// PMF returns P(X = k). It is 0 for k outside [0, n].
func (b *Binomial) PMF(k int) float64 {
	if k < 0 || k > b.n {
		return 0
	}
	return b.pmf[k]
}

// PMFTable returns a copy of the full probability mass table indexed by k.
func (b *Binomial) PMFTable() []float64 {
	out := make([]float64, len(b.pmf))
	copy(out, b.pmf)
	return out
}

// CDF returns P(X <= k).
func (b *Binomial) CDF(k int) float64 {
	if k < 0 {
		return 0
	}
	if k >= b.n {
		return 1
	}
	sum := 0.0
	for i := 0; i <= k; i++ {
		sum += b.pmf[i]
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// Quantile returns the smallest k with CDF(k) >= q for q in [0, 1].
func (b *Binomial) Quantile(q float64) int {
	if q <= 0 {
		return 0
	}
	if q >= 1 {
		return b.n
	}
	sum := 0.0
	for k := 0; k <= b.n; k++ {
		sum += b.pmf[k]
		if sum >= q {
			return k
		}
	}
	return b.n
}

// Mean returns n·p.
func (b *Binomial) Mean() float64 { return float64(b.n) * b.p }

// Variance returns n·p·(1−p).
func (b *Binomial) Variance() float64 { return float64(b.n) * b.p * (1 - b.p) }

// StdDev returns the standard deviation.
func (b *Binomial) StdDev() float64 { return math.Sqrt(b.Variance()) }

// Sample draws one variate using rng.
func (b *Binomial) Sample(rng *RNG) int { return rng.Binomial(b.n, b.p) }

// SampleN draws count variates using rng.
func (b *Binomial) SampleN(rng *RNG, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = rng.Binomial(b.n, b.p)
	}
	return out
}

// String implements fmt.Stringer.
func (b *Binomial) String() string { return fmt.Sprintf("B(%d, %g)", b.n, b.p) }
