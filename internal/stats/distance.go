package stats

import (
	"fmt"
	"math"
)

// L1Distance returns the L¹ norm distance between two discrete probability
// vectors over the same support: Σ_j |p[j] − q[j]|. It is the distribution
// distance of the paper's behaviour test (§3.2). The result lies in [0, 2]
// when both arguments are probability vectors.
func L1Distance(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("%w: support mismatch %d vs %d", ErrInvalidDistribution, len(p), len(q))
	}
	d := 0.0
	for i := range p {
		d += math.Abs(p[i] - q[i])
	}
	return d, nil
}

// L2Distance returns the Euclidean distance between two discrete probability
// vectors over the same support.
func L2Distance(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("%w: support mismatch %d vs %d", ErrInvalidDistribution, len(p), len(q))
	}
	d := 0.0
	for i := range p {
		diff := p[i] - q[i]
		d += diff * diff
	}
	return math.Sqrt(d), nil
}

// ChiSquareStat returns the Pearson χ² statistic of observed counts against
// an expected distribution, merging tail cells whose expected count is below
// minExpected (the usual validity rule for the χ² approximation; pass 0 to
// disable merging). total is inferred from the observed counts.
func ChiSquareStat(observed []int64, expected []float64, minExpected float64) (float64, error) {
	if len(observed) != len(expected) {
		return 0, fmt.Errorf("%w: support mismatch %d vs %d", ErrInvalidDistribution, len(observed), len(expected))
	}
	var total int64
	for _, o := range observed {
		total += o
	}
	if total == 0 {
		return 0, fmt.Errorf("%w: empty sample", ErrInvalidDistribution)
	}
	stat := 0.0
	var accO int64
	accE := 0.0
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
	return stat, nil
}

// KSStat returns the Kolmogorov–Smirnov statistic between the empirical CDF
// implied by a discrete probability vector p and a reference vector q over
// the same support: max_j |P(j) − Q(j)|.
func KSStat(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("%w: support mismatch %d vs %d", ErrInvalidDistribution, len(p), len(q))
	}
	maxD, cp, cq := 0.0, 0.0, 0.0
	for i := range p {
		cp += p[i]
		cq += q[i]
		if d := math.Abs(cp - cq); d > maxD {
			maxD = d
		}
	}
	return maxD, nil
}

// L1HistDistance returns the L¹ distance between the empirical frequency
// distribution of h and the PMF of b. The two supports must match. This is
// the hot path of behaviour testing, so it avoids the intermediate slices of
// Freqs/PMFTable.
func L1HistDistance(h *Histogram, b *Binomial) (float64, error) {
	if h.Max() != b.N() {
		return 0, fmt.Errorf("%w: histogram support [0,%d] vs B(%d,·)", ErrInvalidDistribution, h.Max(), b.N())
	}
	if h.Total() == 0 {
		return 0, fmt.Errorf("%w: empty sample", ErrInvalidDistribution)
	}
	total := float64(h.Total())
	d := 0.0
	for k := 0; k <= b.N(); k++ {
		d += math.Abs(float64(h.Count(k))/total - b.pmf[k])
	}
	return d, nil
}

// L1CountsDistance returns the L¹ distance between a binomial PMF table (as
// filled by BinomialPMFInto) and the empirical frequency distribution of the
// per-bucket window counts, totalling total windows. It is L1HistDistance
// for the incremental behaviour accumulator, which keeps bare count vectors
// and shared PMF tables instead of Histogram and Binomial objects; the
// floating-point evaluation order matches L1HistDistance term for term, so
// equal inputs yield bit-identical distances. Empty buckets take a
// division-free shortcut: 0/t is exactly +0, so |0/t − pmf| is pmf itself bit
// for bit (PMF entries are never negative).
func L1CountsDistance(counts []int64, total int64, pmf []float64) (float64, error) {
	if len(counts) != len(pmf) {
		return 0, fmt.Errorf("%w: histogram support [0,%d] vs B(%d,·)", ErrInvalidDistribution, len(counts)-1, len(pmf)-1)
	}
	if total == 0 {
		return 0, fmt.Errorf("%w: empty sample", ErrInvalidDistribution)
	}
	tf := float64(total)
	d := 0.0
	pmf = pmf[:len(counts)] // bounds-check elimination in the loop below
	for k, c := range counts {
		if c == 0 {
			d += pmf[k]
		} else {
			d += math.Abs(float64(c)/tf - pmf[k])
		}
	}
	return d, nil
}

// L1SampleDistance builds a histogram from per-window counts and returns its
// L¹ distance to B(m, p̂) where p̂ is the MLE estimated from the same counts.
// This is exactly the single behaviour test statistic of §3.2. It returns the
// distance, the estimate p̂, and an error for invalid input.
func L1SampleDistance(m int, counts []int) (dist, pHat float64, err error) {
	pHat, err = BinomialMLE(m, counts)
	if err != nil {
		return 0, 0, err
	}
	h := MustHistogram(m)
	if err := h.AddAll(counts); err != nil {
		return 0, 0, err
	}
	b, err := NewBinomial(m, pHat)
	if err != nil {
		return 0, 0, err
	}
	dist, err = L1HistDistance(h, b)
	return dist, pHat, err
}
