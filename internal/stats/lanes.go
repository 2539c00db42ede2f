package stats

import (
	"math/bits"
	"sync"
)

// The lane path of CalibrateL1 (ADR 0007). xoshiro256 is linear over GF(2):
// its state after k steps is T^k·s for one 256×256 matrix T, and T^k is
// (x^k mod P)(T), where P is T's characteristic polynomial. So the state
// replicate j·⌈R/8⌉ starts from is reached in 256 steps, not j·⌈R/8⌉ ×
// windows × m, and eight such states — one per lane of an AVX-512 register —
// draw the calibration stream's eight slices at once. Each lane draws the
// same uniforms, maps them to the same variates and tallies them into the
// same replicates as the scalar loop, which stays the reference.
const (
	lanes = 8
	// laneMaxM bounds the window size: a lane's tally is m + 1 five-bit
	// fields of one 64-bit word.
	laneMaxM = 11
	// laneWindows is the most windows one laneTally call folds into a
	// tally: a five-bit field counts up to 31.
	laneWindows = 31
	// minLaneReplicate and minLaneUniforms are the smallest replicate
	// (windows × m) and point (replicates × windows × m) the lanes take:
	// below them, unpacking the tallies and jumping the lanes cost more than
	// the kernel saves (BenchmarkCalibrateL1 runs both smallest points).
	minLaneReplicate = 32
	minLaneUniforms  = 1 << 14
)

// gf2poly is a polynomial over GF(2) of degree below 256: bit i%64 of word
// i/64 is the coefficient of x^i.
type gf2poly [4]uint64

// charPoly is P − x^256, P being the characteristic polynomial of the
// xoshiro256 transition (TestJumpMatchesSteps re-derives it by
// Berlekamp–Massey).
var charPoly = gf2poly{0x9d116f2bb0f0f001, 0x0280002bcefd1a5e, 0x04b4edcf26259f85, 0x0003c03c3f3ecb19}

// mulMod returns a·b mod P, Horner over b's coefficients from the top.
func mulMod(a, b gf2poly) gf2poly {
	var acc gf2poly
	for i := 255; i >= 0; i-- {
		carry := -(acc[3] >> 63) // x^256 ≡ charPoly
		take := -(b[i>>6] >> (i & 63) & 1)
		acc[3] = (acc[3]<<1 | acc[2]>>63) ^ charPoly[3]&carry ^ a[3]&take
		acc[2] = (acc[2]<<1 | acc[1]>>63) ^ charPoly[2]&carry ^ a[2]&take
		acc[1] = (acc[1]<<1 | acc[0]>>63) ^ charPoly[1]&carry ^ a[1]&take
		acc[0] = acc[0]<<1 ^ charPoly[0]&carry ^ a[0]&take
	}
	return acc
}

// pow2Table[i] is x^(2^i) mod P, built on the first lane calibration.
var pow2Table = sync.OnceValue(func() (t [64]gf2poly) {
	t[0] = gf2poly{2}
	for i := 1; i < len(t); i++ {
		t[i] = mulMod(t[i-1], t[i-1])
	}
	return t
})

// xPow returns x^k mod P: one mulMod per set bit of k.
func xPow(k uint64) gf2poly {
	p := gf2poly{1}
	t := pow2Table()
	for ; k != 0; k &= k - 1 {
		p = mulMod(p, t[bits.TrailingZeros64(k)])
	}
	return p
}

// jumpBy returns the state poly(T)·s; for poly = xPow(k) that is the state k
// Uint64 calls after s.
func jumpBy(poly gf2poly, s [4]uint64) [4]uint64 {
	var acc [4]uint64
	s0, s1, s2, s3 := s[0], s[1], s[2], s[3]
	for i := 0; i < 256; i++ {
		take := -(poly[i>>6] >> (i & 63) & 1)
		acc[0] ^= s0 & take
		acc[1] ^= s1 & take
		acc[2] ^= s2 & take
		acc[3] ^= s3 & take
		_, s0, s1, s2, s3 = step(s0, s1, s2, s3)
	}
	return acc
}

// takesLanes reports whether CalibrateL1 runs a point on the lane kernel.
func takesLanes(m, numWindows, replicates int, pHat float64) bool {
	return laneKernel && m <= laneMaxM && pHat > 0 && pHat < 1 && replicates >= lanes &&
		numWindows*m >= minLaneReplicate && replicates*numWindows*m >= minLaneUniforms
}

// CalibrationKernel names the kernel CalibrateL1 draws a window size m on in
// this process: "avx512" for the eight-lane kernel, "scalar" otherwise.
func CalibrationKernel(m int) string {
	if laneKernel && m >= 1 && m <= laneMaxM {
		return "avx512"
	}
	return "scalar"
}

// fillLanes fills dists as fillScalar does, replicate for replicate: lane j
// draws replicates [j·per, (j+1)·per) from its own jumped-ahead state, and
// the lanes past len(dists) draw replicates nobody reads. It needs
// m ≤ laneMaxM and 0 < p̂ < 1.
func (pt *calibPoint) fillLanes(dists []float64) error {
	m := pt.m
	per := (len(dists) + lanes - 1) / lanes
	jump := xPow(uint64(per) * uint64(pt.numWindows) * uint64(m))
	var st [4][lanes]uint64
	s := NewRNG(pt.seed).s
	for j := 0; j < lanes; j++ {
		if j > 0 {
			s = jumpBy(jump, s)
		}
		for w := range s {
			st[w][j] = s[w]
		}
	}
	thr := uniformThreshold(pt.pHat) << 11 // u>>11 < t ⇔ u < t<<11; t < 2^53
	tallies := make([]int64, lanes*(m+1))
	var acc [lanes]uint64
	for i := 0; i < per; i++ {
		clear(tallies)
		for left := pt.numWindows; left > 0; left -= laneWindows {
			laneTally(&st, &acc, thr, m, min(left, laneWindows))
			for j, a := range acc {
				t := tallies[j*(m+1) : (j+1)*(m+1)]
				for k := range t {
					t[k] += int64(a & 31)
					a >>= 5
				}
			}
		}
		for j := 0; j < lanes && j*per+i < len(dists); j++ {
			var err error
			if dists[j*per+i], err = pt.distance(tallies[j*(m+1) : (j+1)*(m+1)]); err != nil {
				return err
			}
		}
	}
	return nil
}
