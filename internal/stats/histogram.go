package stats

import (
	"fmt"
	"strings"
)

// Histogram counts integer observations over the fixed support [0, max]. It
// is the empirical side of the distribution test: the per-window good-count
// histogram compared against a binomial PMF.
//
// The zero value is not useful; construct with NewHistogram. Histogram
// supports O(1) incremental addition and removal of observations, which is
// what makes the optimised multi-testing scheme linear-time.
type Histogram struct {
	counts []int64
	total  int64
	sum    int64 // sum of observed values, for MLE reuse
}

// NewHistogram returns an empty histogram over the support [0, max].
func NewHistogram(max int) (*Histogram, error) {
	if max < 0 {
		return nil, fmt.Errorf("%w: histogram support max %d", ErrInvalidDistribution, max)
	}
	return &Histogram{counts: make([]int64, max+1)}, nil
}

// MustHistogram is NewHistogram that panics on invalid input.
func MustHistogram(max int) *Histogram {
	h, err := NewHistogram(max)
	if err != nil {
		panic(err)
	}
	return h
}

// Max returns the largest value in the support.
func (h *Histogram) Max() int { return len(h.counts) - 1 }

// Add records one observation of value v. It returns an error when v is
// outside the support.
func (h *Histogram) Add(v int) error {
	if v < 0 || v >= len(h.counts) {
		return fmt.Errorf("%w: observation %d outside [0, %d]", ErrInvalidDistribution, v, h.Max())
	}
	h.counts[v]++
	h.total++
	h.sum += int64(v)
	return nil
}

// Remove deletes one previously recorded observation of value v. It returns
// an error when v is outside the support or has zero count.
func (h *Histogram) Remove(v int) error {
	if v < 0 || v >= len(h.counts) {
		return fmt.Errorf("%w: observation %d outside [0, %d]", ErrInvalidDistribution, v, h.Max())
	}
	if h.counts[v] == 0 {
		return fmt.Errorf("%w: removing value %d with zero count", ErrInvalidDistribution, v)
	}
	h.counts[v]--
	h.total--
	h.sum -= int64(v)
	return nil
}

// Count returns the number of observations of value v (0 outside support).
func (h *Histogram) Count(v int) int64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int64 { return h.total }

// Sum returns the sum of all recorded observation values.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the sample mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.total)
}

// Reset clears all observations, keeping the support.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
}

// Clone returns an independent copy.
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{counts: make([]int64, len(h.counts)), total: h.total, sum: h.sum}
	copy(c.counts, h.counts)
	return c
}

// AddAll records every observation in vs, stopping at the first error.
func (h *Histogram) AddAll(vs []int) error {
	for _, v := range vs {
		if err := h.Add(v); err != nil {
			return err
		}
	}
	return nil
}

// String renders a compact "v:count" listing of non-zero bins.
func (h *Histogram) String() string {
	var sb strings.Builder
	sb.WriteString("hist{")
	first := true
	for v, c := range h.counts {
		if c == 0 {
			continue
		}
		if !first {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%d:%d", v, c)
		first = false
	}
	sb.WriteString("}")
	return sb.String()
}
