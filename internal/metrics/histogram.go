package metrics

import "sync/atomic"

// Histogram is a distribution over fixed upper bounds, owned by the layer
// that observes into it: one atomic count per bucket, an overflow bucket
// past the last bound, and an atomic sum. Observe takes no lock and
// allocates nothing; the count is the buckets' total, kept nowhere else.
// Safe for concurrent use.
type Histogram struct {
	bounds []uint64
	counts []atomic.Uint64 // bucket i holds values in (bounds[i-1], bounds[i]]; the last is the overflow
	sum    atomic.Uint64
}

// HistogramOver returns an empty histogram over bounds, which must be
// non-empty and ascend, and which the histogram keeps.
func HistogramOver(bounds []uint64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe counts v in the first bucket whose bound is at least v, or in the
// overflow bucket, and adds it to the sum.
func (h *Histogram) Observe(v uint64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// Count is the number of values observed.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum is the total of the values observed.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Quantile locates the q-quantile, 0 < q ≤ 1: the first bucket whose
// cumulative count reaches q·Count. It returns that bucket's bounds — the
// previous bound (0 for the first bucket) and its own; the overflow bucket
// reports the last bound as both — and frac, the rank's fraction through
// the bucket's count, in [0, 1]. An empty histogram reports zeros.
func (h *Histogram) Quantile(q float64) (lo, hi uint64, frac float64) {
	n := h.Count()
	if n == 0 {
		return 0, 0, 0
	}
	last := h.bounds[len(h.bounds)-1]
	rank := q * float64(n)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		prev := cum
		cum += c
		if c == 0 || float64(cum) < rank {
			continue
		}
		hi = last
		if i < len(h.bounds) {
			hi = h.bounds[i]
		}
		if i > 0 {
			lo = h.bounds[i-1]
		}
		return lo, hi, min(max((rank-float64(prev))/float64(c), 0), 1)
	}
	return last, last, 1 // q > 1
}
