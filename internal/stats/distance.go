package stats

import (
	"fmt"
	"math"
)

// L1CountsDistance returns the L¹ distance between a binomial PMF table (as
// filled by BinomialPMFInto) and the empirical frequency distribution of the
// per-bucket window counts, totalling total windows: Σₖ |counts[k]/total −
// pmf[k]|, summed in bucket order. It is the distance of every behaviour
// test and of every calibration replicate, so a threshold and the distance
// compared against it come from one expression, l1Term. Counts come as int64
// from the calibrator's tallies and as uint32 from the behaviour testers'
// histograms; each converts to float64 exactly.
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
		d += l1Term(float64(c), tf, pmf[k])
	}
	return d, nil
}

// l1Term is one bucket's term of L1CountsDistance: |c/total − p| for a
// bucket of PMF entry p holding c of total windows. An empty bucket takes a
// division-free shortcut: 0/total is exactly +0, so |0/total − p| is p
// itself bit for bit (PMF entries are never negative). The lane calibration
// tabulates it per (bucket, count) and sums the table's entries in bucket
// order, so its distances are this loop's bits.
func l1Term(c, total, p float64) float64 {
	if c == 0 {
		return p
	}
	return math.Abs(c/total - p)
}
