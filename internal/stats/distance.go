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
// compared against it come from one expression. Empty buckets take a
// division-free shortcut: 0/t is exactly +0, so |0/t − pmf| is pmf itself bit
// for bit (PMF entries are never negative). Counts come as int64 from the
// calibrator's tallies and as uint32 from the behaviour testers' histograms;
// each converts to float64 exactly.
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
