package stats

import (
	"fmt"
	"math"
)

// L1HistDistance returns the L¹ distance between the empirical frequency
// distribution of h and the PMF of b. The two supports must match. This is
// the hot path of behaviour testing, so it reads the counts in place and
// builds no frequency or PMF slice.
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
// for bit (PMF entries are never negative). Counts come as int64 from the
// calibrator's tallies and as uint32 from the accumulator's histograms; each
// converts to float64 exactly.
func L1CountsDistance[C int64 | uint32](counts []C, total int64, pmf []float64) (float64, error) {
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
