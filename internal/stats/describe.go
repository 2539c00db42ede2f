package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics of a float sample.
type Summary struct {
	N        int     `json:"n"`
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	StdDev   float64 `json:"stdDev"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
	Median   float64 `json:"median"`
	P05      float64 `json:"p05"`
	P95      float64 `json:"p95"`
}

// Describe computes a Summary of xs. It returns an error for an empty
// sample.
func Describe(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, fmt.Errorf("%w: empty sample", ErrInvalidDistribution)
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	ss := 0.0
	for _, x := range xs {
		d := x - s.Mean
		ss += float64(d * d)
	}
	if len(xs) > 1 {
		s.Variance = ss / float64(len(xs)-1)
	}
	s.StdDev = math.Sqrt(s.Variance)
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s.Median = Quantile(sorted, 0.5)
	s.P05 = Quantile(sorted, 0.05)
	s.P95 = Quantile(sorted, 0.95)
	return s, nil
}

// Quantile returns the q-quantile (q in [0, 1]) of an ascending-sorted
// sample using linear interpolation between order statistics. It returns NaN
// for an empty sample and clamps q into [0, 1].
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := float64(q * float64(n-1)) // each product rounded: ε is the same on every GOARCH
	lo := int(math.Floor(pos))
	hi := lo + 1
	frac := pos - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac)
}

// SelectQuantile is Quantile(sort.Float64s(xs), q), bit for bit, for xs
// without NaNs, by selection instead of a sort: it reorders xs so that the
// one or two order statistics Quantile reads sit where sorting would put
// them, and reads them there.
func SelectQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n <= 1 || q <= 0 || q >= 1 {
		k := 0
		if n > 1 && q >= 1 {
			k = n - 1
		}
		if n > 0 {
			selectNth(xs, k)
		}
		return Quantile(xs, q)
	}
	lo := int(math.Floor(float64(q * float64(n-1)))) // as Quantile rounds it
	selectNth(xs, lo)
	// Everything after lo is at least xs[lo]: the next order statistic is
	// the least of it.
	next := lo + 1
	for i := lo + 2; i < n; i++ {
		if xs[i] < xs[next] {
			next = i
		}
	}
	xs[lo+1], xs[next] = xs[next], xs[lo+1]
	return Quantile(xs, q)
}

// selectNth reorders xs so that xs[k] is the value sorting would put there,
// with nothing greater before it and nothing smaller after it. It
// partitions three ways, so the many equal distances a calibration draws
// cost one pass.
func selectNth(xs []float64, k int) {
	lo, hi := 0, len(xs) // k is in [lo, hi)
	for hi-lo > 1 {
		a, b, c := xs[lo], xs[lo+(hi-lo)/2], xs[hi-1]
		p := max(min(a, b), min(max(a, b), c)) // the median of three
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := xs[i]; {
			case x < p:
				xs[lt], xs[i] = x, xs[lt]
				lt++
				i++
			case x > p:
				gt--
				xs[gt], xs[i] = x, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// Mean returns the arithmetic mean of xs, or 0 for an empty sample.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// WilsonInterval returns the Wilson score interval for a Bernoulli success
// probability given good successes out of n trials at normal quantile z
// (1.96 for 95%). Unlike the naive ±z·√(p̂(1−p̂)/n) interval it behaves at
// the extremes p̂ ≈ 0, 1 that reputation data lives at. It returns an error
// for invalid inputs.
func WilsonInterval(good, n int, z float64) (lo, hi float64, err error) {
	if n <= 0 || good < 0 || good > n || math.IsNaN(z) || z <= 0 {
		return 0, 0, fmt.Errorf("%w: good=%d n=%d z=%v", ErrInvalidDistribution, good, n, z)
	}
	p := float64(good) / float64(n)
	nn := float64(n)
	z2 := z * z
	denom := 1 + z2/nn
	center := (p + z2/(2*nn)) / denom
	half := float64(z / denom * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn))) // not fused into center ± half
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi, nil
}
