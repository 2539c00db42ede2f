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
	// minLaneUniforms is the smallest point (replicates × windows × m) the
	// lanes take: below it, jumping the lanes costs more than the kernel
	// saves. Past it they win at every replicate size down to one window
	// (BenchmarkCalibrateL1 runs the points either side of the gate and a
	// one-window replicate).
	minLaneUniforms = 1 << 12
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

// maxJumps bounds jumps at one exponent per (window bucket, m ≤ laneMaxM),
// 385: a Calibrator's whole lane grid at its one replicate count. The bench
// workloads' seed-1 sweeps ask 8–23 exponents a process, all at m = 10; only
// a process calibrating at several replicate counts, or calling CalibrateL1
// off the grid, can fill the memo.
var maxJumps = laneMaxM * len(gridBuckets)

// jumps memoises x^k mod P by exponent k, 40 bytes an exponent asked: a full
// memo starts over.
var jumps struct {
	sync.Mutex
	poly map[uint64]gf2poly
}

// jumpPoly returns xPow(k), from jumps when an earlier point asked for k.
// Racing first askers of one k each compute it and store equal values.
func jumpPoly(k uint64) gf2poly {
	jumps.Lock()
	p, ok := jumps.poly[k]
	jumps.Unlock()
	if ok {
		return p
	}
	p = xPow(k)
	jumps.Lock()
	defer jumps.Unlock()
	if len(jumps.poly) >= maxJumps || jumps.poly == nil {
		jumps.poly = make(map[uint64]gf2poly)
	}
	jumps.poly[k] = p
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
		replicates*numWindows*m >= minLaneUniforms
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
	jump := jumpPoly(uint64(per) * uint64(pt.numWindows) * uint64(m))
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
	if pt.numWindows <= 2*laneWindows {
		pt.fillFused(dists, &st, thr, per)
		return nil
	}
	var tallies [lanes][laneMaxM + 1]int64
	var acc [lanes]uint64
	for i := 0; i < per; i++ {
		tallies = [lanes][laneMaxM + 1]int64{}
		for left := pt.numWindows; left > 0; left -= laneWindows {
			laneTally(&st, &acc, thr, m, min(left, laneWindows))
			for j, a := range acc {
				t := tallies[j][:m+1]
				for k := range t {
					t[k] += int64(a & 31)
					a >>= 5
				}
			}
		}
		for j := 0; j < lanes && j*per+i < len(dists); j++ {
			var err error
			if dists[j*per+i], err = pt.distance(tallies[j][:m+1]); err != nil {
				return err
			}
		}
	}
	return nil
}

// fillFused is fillLanes for numWindows ≤ 2·laneWindows, where one
// laneTally call, or two, tally a replicate's every window: each lane's
// distance is read off its packed tally through term[k][c], bucket k's
// l1Term at count c, summed in bucket order — the additions
// L1CountsDistance makes, in its order, so the same bits — with the eight
// lanes' sums interleaved. Past laneWindows a second call tallies the rest
// and fusedSums2 adds the two words' fields before each lookup.
func (pt *calibPoint) fillFused(dists []float64, st *[4][lanes]uint64, thr uint64, per int) {
	var term [laneMaxM + 1][2*laneWindows + 1]float64
	total := float64(pt.numWindows)
	for k, p := range pt.pmf {
		for c := 0; c <= pt.numWindows; c++ {
			term[k][c] = l1Term(float64(c), total, p)
		}
	}
	rows := term[:pt.m+1]
	var acc, more [lanes]uint64
	var d [lanes]float64
	for i := 0; i < per; i++ {
		if pt.numWindows <= laneWindows {
			laneTally(st, &acc, thr, pt.m, pt.numWindows)
			d = fusedSums(rows, &acc)
		} else {
			laneTally(st, &acc, thr, pt.m, laneWindows)
			laneTally(st, &more, thr, pt.m, pt.numWindows-laneWindows)
			d = fusedSums2(rows, &acc, &more)
		}
		for j := range d {
			if r := j*per + i; r < len(dists) {
				dists[r] = d[j]
			}
		}
	}
}

// fusedSums returns each lane's Σₖ rows[k][count k] off its packed tally.
func fusedSums(rows [][2*laneWindows + 1]float64, acc *[lanes]uint64) [lanes]float64 {
	a0, a1, a2, a3, a4, a5, a6, a7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	var d0, d1, d2, d3, d4, d5, d6, d7 float64
	for k := range rows {
		t := &rows[k]
		d0 += t[a0&31]
		d1 += t[a1&31]
		d2 += t[a2&31]
		d3 += t[a3&31]
		d4 += t[a4&31]
		d5 += t[a5&31]
		d6 += t[a6&31]
		d7 += t[a7&31]
		a0, a1, a2, a3, a4, a5, a6, a7 = a0>>5, a1>>5, a2>>5, a3>>5, a4>>5, a5>>5, a6>>5, a7>>5
	}
	return [lanes]float64{d0, d1, d2, d3, d4, d5, d6, d7}
}

// fusedSums2 is fusedSums over two packed tallies, bucket k's count the sum
// of their fields k.
func fusedSums2(rows [][2*laneWindows + 1]float64, acc, more *[lanes]uint64) [lanes]float64 {
	a0, a1, a2, a3, a4, a5, a6, a7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	b0, b1, b2, b3, b4, b5, b6, b7 := more[0], more[1], more[2], more[3], more[4], more[5], more[6], more[7]
	var d0, d1, d2, d3, d4, d5, d6, d7 float64
	for k := range rows {
		t := &rows[k]
		d0 += t[a0&31+b0&31]
		d1 += t[a1&31+b1&31]
		d2 += t[a2&31+b2&31]
		d3 += t[a3&31+b3&31]
		d4 += t[a4&31+b4&31]
		d5 += t[a5&31+b5&31]
		d6 += t[a6&31+b6&31]
		d7 += t[a7&31+b7&31]
		a0, a1, a2, a3, a4, a5, a6, a7 = a0>>5, a1>>5, a2>>5, a3>>5, a4>>5, a5>>5, a6>>5, a7>>5
		b0, b1, b2, b3, b4, b5, b6, b7 = b0>>5, b1>>5, b2>>5, b3>>5, b4>>5, b5>>5, b6>>5, b7>>5
	}
	return [lanes]float64{d0, d1, d2, d3, d4, d5, d6, d7}
}
