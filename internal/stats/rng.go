// Package stats provides the statistical substrate the honest-player model
// depends on: a deterministic random number generator, Bernoulli and binomial
// distributions, distribution distances, descriptive statistics, and the
// Monte-Carlo calibration of distribution-distance thresholds.
//
// Go's standard library has math/rand, but reproducing the paper's
// experiments requires (a) a seedable generator whose streams are stable
// across runs and platforms, and (b) distribution machinery (PMFs, CDFs,
// quantiles, L1 distances) that the standard library does not provide. All of
// it lives here, implemented from scratch on top of package math only.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator based on
// xoshiro256** seeded through splitmix64. Streams are fully determined by
// the seed, so every simulation and experiment in this repository is
// reproducible bit-for-bit.
//
// RNG is not safe for concurrent use; give each goroutine its own instance
// (use Split to derive independent streams).
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed. Any seed value,
// including zero, produces a valid, well-mixed state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed using splitmix64, which
// guarantees the four xoshiro words are never all zero.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split derives a new, statistically independent generator from r. It
// advances r, so the parent and child streams do not overlap in practice.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// step is one xoshiro256** transition on explicit state words: the output
// and the next state. It is the only definition of the generator; it is
// small enough to inline, so a loop that keeps the four words in locals
// (countBelow) runs at the generator's own latency.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	var out uint64
	out, r.s[0], r.s[1], r.s[2], r.s[3] = step(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// Float64 returns a uniformly distributed float in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0,
// matching the contract of math/rand.Intn.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		threshold := -un % un
		for lo < threshold {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Bernoulli returns true with probability p. Values of p outside [0, 1] are
// clamped.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// uniformThreshold returns, for p in (0, 1), the integer t with
// Float64() < p ⇔ Uint64()>>11 < t on the same draw. Float64 is v/2^53 for the
// 53-bit integer v, and both v/2^53 and p·2^53 are exact in float64, so
// v/2^53 < p ⇔ v < p·2^53 ⇔ v < ceil(p·2^53): the integer compare yields the
// same bit as the float compare, uniform for uniform.
func uniformThreshold(p float64) uint64 { return uint64(math.Ceil(p * (1 << 53))) }

// countBelow consumes n uniforms and returns how many fell below thr (as
// given by uniformThreshold): one B(n, p) variate by direct simulation. The
// state lives in locals for the n steps and the count is branch-free — v and
// thr are below 2^53, so v − thr wraps to a set top bit exactly when v < thr.
func (r *RNG) countBelow(n int, thr uint64) int {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	k := 0
	for i := 0; i < n; i++ {
		var u uint64
		u, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		k += int((u>>11 - thr) >> 63)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return k
}

// Binomial draws a sample from B(n, p): the number of successes in n
// independent Bernoulli(p) trials. For the small n used by transaction
// windows (n <= 64) it is direct simulation, one uniform per trial; for
// larger n it inverts the CDF from one uniform (splitting n in halves while
// (1−p)^n underflows). Both are exact.
//
// The stream position after a draw is part of the contract (ADR 0007): n
// uniforms for n <= 64, and none at all when n <= 0, p <= 0, p >= 1 or p is
// NaN, which return 0, 0, n and 0. Every calibrated ε and every figure is a
// function of that stream, so a cheaper draw must consume the same uniforms
// and map them to the same variate.
func (r *RNG) Binomial(n int, p float64) int {
	if n <= 0 || !(p > 0) { // !(p > 0) is p <= 0 or NaN
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		return r.countBelow(n, uniformThreshold(p))
	}
	// CDF inversion: O(n·p) expected steps starting from the mode-adjacent
	// recurrence; exact and adequate for calibration workloads.
	u := r.Float64()
	pmf := math.Pow(1-p, float64(n)) // P(X = 0)
	if pmf == 0 {
		// Underflow guard for large n: recurse via normal-free splitting.
		half := n / 2
		return r.Binomial(half, p) + r.Binomial(n-half, p)
	}
	cdf := pmf
	k := 0
	for u > cdf && k < n {
		k++
		pmf = float64(pmf * ((float64(n-k+1) / float64(k)) * (p / (1 - p)))) // not fused into cdf
		cdf += pmf
	}
	return k
}

// BinomialTally adds draws variates of B(n, p) to tally — tally[k]++ for a
// variate k, so tally must have length at least n+1 — and returns their sum.
// It consumes the stream that many calls of Binomial consume and yields the
// same variates, with the threshold computed once for the batch; it is the
// scalar inner loop of CalibrateL1, at ~2.4 ns per uniform on a 2-vCPU Xeon
// (the eight-lane kernel, lanes_amd64.s, draws the same stream at ~0.4 ns).
func (r *RNG) BinomialTally(tally []int64, n int, p float64, draws int) (sum int64) {
	switch {
	case draws <= 0:
		return 0
	case n <= 0 || !(p > 0):
		tally[0] += int64(draws)
		return 0
	case p >= 1:
		tally[n] += int64(draws)
		return int64(n) * int64(draws)
	}
	thr := uniformThreshold(p)
	for i := 0; i < draws; i++ {
		var k int
		if n <= 64 {
			k = r.countBelow(n, thr)
		} else {
			k = r.Binomial(n, p)
		}
		tally[k]++
		sum += int64(k)
	}
	return sum
}

// Shuffle pseudo-randomly permutes the order of n elements using the
// Fisher-Yates algorithm, calling swap for each exchange.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a pseudo-random permutation of the integers [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Sample returns k distinct indices drawn uniformly from [0, n) in
// increasing order, using Floyd's algorithm. It panics if k > n or k < 0.
func (r *RNG) Sample(n, k int) []int {
	if k < 0 || k > n {
		panic("stats: Sample called with k out of range")
	}
	chosen := make(map[int]struct{}, k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
	}
	out := make([]int, 0, k)
	for i := 0; i < n && len(out) < k; i++ {
		if _, ok := chosen[i]; ok {
			out = append(out, i)
		}
	}
	return out
}
