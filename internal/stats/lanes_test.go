package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"testing"
)

// TestJumpMatchesSteps: jumpBy(xPow(k)) lands where k Uint64 calls land,
// charPoly is the generator's characteristic polynomial (re-derived by
// Berlekamp–Massey from a linear bit of the state sequence), and x^(2^128)
// mod P is xoshiro256's published JUMP polynomial.
func TestJumpMatchesSteps(t *testing.T) {
	for _, k := range []uint64{0, 1, 63, 64, 255, 256, 257, 12345, 125 * 477 * 10} {
		r := NewRNG(42 + k)
		got := jumpBy(xPow(k), r.s)
		for i := uint64(0); i < k; i++ {
			r.Uint64()
		}
		if got != r.s {
			t.Errorf("jumpBy(x^%d) = %#x, %d steps give %#x", k, got, k, r.s)
		}
	}

	// Bit 0 of s0 is a linear functional of the state; P is primitive (the
	// period is 2^256 − 1), so the sequence's minimal polynomial is P.
	seq := make([]uint8, 2*256+64)
	r := NewRNG(7)
	for i := range seq {
		seq[i] = uint8(r.s[0] & 1)
		r.Uint64()
	}
	c, l := berlekampMassey(seq)
	if l != 256 {
		t.Fatalf("linear complexity %d, want 256", l)
	}
	// s[n+256] = Σ c_i s[n+256−i], so P's coefficient of x^j is c_(256−j).
	var derived gf2poly
	for j := 0; j < 256; j++ {
		derived[j>>6] |= uint64(c[256-j]) << (j & 63)
	}
	if derived != charPoly {
		t.Errorf("Berlekamp–Massey gives P − x^256 = %#x, charPoly is %#x", derived, charPoly)
	}

	p := gf2poly{2}
	for i := 0; i < 128; i++ {
		p = mulMod(p, p)
	}
	if jump := (gf2poly{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}); p != jump {
		t.Errorf("x^(2^128) mod P = %#x, xoshiro256's JUMP is %#x", p, jump)
	}
}

// berlekampMassey returns the connection polynomial c (c[0] = 1) and linear
// complexity of a GF(2) sequence: s[n] = Σ_{i=1..l} c[i]·s[n−i].
func berlekampMassey(s []uint8) ([]uint8, int) {
	n := len(s)
	c, b := make([]uint8, n+1), make([]uint8, n+1)
	c[0], b[0] = 1, 1
	l, m := 0, 1
	for i := 0; i < n; i++ {
		d := s[i]
		for j := 1; j <= l; j++ {
			d ^= c[j] & s[i-j]
		}
		if d == 0 {
			m++
			continue
		}
		prev := append([]uint8(nil), c...)
		for j := 0; j+m <= n; j++ {
			c[j+m] ^= b[j]
		}
		if 2*l <= i {
			l, b, m = i+1-l, prev, 1
		} else {
			m++
		}
	}
	return c[:l+1], l
}

// scalarEpsilon is CalibrateL1 on the scalar loop whatever the CPU.
func scalarEpsilon(m, w int, p float64, cfg CalibrationConfig) (float64, error) {
	cfg = cfg.withDefaults()
	pt, err := newCalibPoint(m, w, p, cfg)
	if err != nil {
		return 0, err
	}
	dists := make([]float64, cfg.Replicates)
	if err := pt.fillScalar(dists); err != nil {
		return 0, err
	}
	sort.Float64s(dists)
	return Quantile(dists, cfg.Confidence), nil
}

// TestCalibrateL1LanesMatchScalar is the lanes-vs-scalar differential: on
// random points either side of every gate, CalibrateL1's ε has the scalar
// loop's bits, and wherever the kernel can run (m ≤ 11, 0 < p̂ < 1) it fills
// every replicate's distance, in order, with the scalar loop's bits — also
// at points too small for CalibrateL1 to send it there.
func TestCalibrateL1LanesMatchScalar(t *testing.T) {
	if !laneKernel {
		t.Skip("no lane kernel on this CPU or build (AVX-512F with OS ZMM state, amd64, not purego): nothing to compare")
	}
	rng := NewRNG(2024)
	ps := []float64{0, 1, 0.5, 0.9, 0.99, 1 - 0x1p-53, 0x1p-60, 0.01}
	reps := []int{1, 3, 7, 8, 9, 15, 17, 100, 1000, 1001, 1003}
	n := 200
	if testing.Short() {
		n = 40
	}
	lanePoints := 0
	for i := 0; i < n; i++ {
		m := 1 + rng.Intn(laneMaxM+1)
		if i%4 == 3 {
			m = 1 + rng.Intn(64)
		}
		w := 1 + rng.Intn(120)
		if i%10 == 0 {
			w = 1 + rng.Intn(700)
		}
		p := rng.Float64()
		if i%3 == 0 {
			p = ps[rng.Intn(len(ps))]
		}
		cfg := CalibrationConfig{Seed: rng.Uint64(), Replicates: reps[rng.Intn(len(reps))]}
		if rng.Intn(2) == 0 {
			cfg.Confidence = []float64{0.5, 0.9, 0.999, 0.9999}[rng.Intn(4)]
		}
		if takesLanes(m, w, cfg.Replicates, p) {
			lanePoints++
		}
		got, err := CalibrateL1(m, w, p, cfg)
		want, werr := scalarEpsilon(m, w, p, cfg)
		if (err != nil) != (werr != nil) || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("CalibrateL1(%d, %d, %v, %+v) = %v, %v; scalar %v, %v", m, w, p, cfg, got, err, want, werr)
		}
		if m > laneMaxM || !(p > 0 && p < 1) {
			continue
		}
		cfg = cfg.withDefaults()
		lane, scalar := make([]float64, cfg.Replicates), make([]float64, cfg.Replicates)
		for _, run := range []struct {
			fill  func(*calibPoint, []float64) error
			dists []float64
		}{{(*calibPoint).fillLanes, lane}, {(*calibPoint).fillScalar, scalar}} {
			pt, err := newCalibPoint(m, w, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := run.fill(pt, run.dists); err != nil {
				t.Fatal(err)
			}
		}
		for r := range lane {
			if math.Float64bits(lane[r]) != math.Float64bits(scalar[r]) {
				t.Fatalf("m=%d w=%d p=%v %+v: replicate %d distance %v in lanes, %v scalar", m, w, p, cfg, r, lane[r], scalar[r])
			}
		}
	}
	if lanePoints == 0 {
		t.Fatal("no point took the lane path")
	}
	t.Logf("%d points, %d through CalibrateL1's lane path", n, lanePoints)
}

func TestCalibrationKernel(t *testing.T) {
	want := "scalar"
	if laneKernel {
		want = "avx512"
	}
	for m, k := range map[int]string{0: "scalar", 1: want, 10: want, laneMaxM: want, laneMaxM + 1: "scalar", 50: "scalar"} {
		if got := CalibrationKernel(m); got != k {
			t.Errorf("CalibrationKernel(%d) = %q, want %q", m, got, k)
		}
	}
}

// TestCalibrateL1LanesDense is the dense lanes-vs-scalar differential: every
// m the kernel takes at every window count up to 64 — the fused distances of
// one packed tally up to laneWindows and of two up to 2·laneWindows, the
// unpacked tallies past it — at p̂ from
// 2⁻⁶⁰ to 1 − 2⁻⁵³, and at replicate counts that fill the eight lanes or
// leave some drawing replicates nobody reads: every replicate's distance has
// fillScalar's bits. Under -short it takes every fifth (m, windows) pair.
func TestCalibrateL1LanesDense(t *testing.T) {
	if !laneKernel {
		t.Skip("no lane kernel on this CPU or build (AVX-512F with OS ZMM state, amd64, not purego): nothing to compare")
	}
	ps := []float64{0x1p-60, 0.01, 0.5, 0.93, 1 - 0x1p-53}
	reps := []int{8, 9, 1000, 1001}
	pairs := 0
	for m := 1; m <= laneMaxM; m++ {
		for w := 1; w <= 64; w++ {
			if pairs++; testing.Short() && pairs%5 != 0 {
				continue
			}
			for _, p := range ps {
				for _, r := range reps {
					cfg := CalibrationConfig{Seed: uint64(pairs), Replicates: r}.withDefaults()
					pt, err := newCalibPoint(m, w, p, cfg)
					if err != nil {
						t.Fatal(err)
					}
					lane, scalar := make([]float64, r), make([]float64, r)
					if err := pt.fillLanes(lane); err != nil {
						t.Fatal(err)
					}
					if err := pt.fillScalar(scalar); err != nil {
						t.Fatal(err)
					}
					for i := range lane {
						if math.Float64bits(lane[i]) != math.Float64bits(scalar[i]) {
							t.Fatalf("m=%d w=%d p=%v R=%d: replicate %d distance %v in lanes, %v scalar", m, w, p, r, i, lane[i], scalar[i])
						}
					}
				}
			}
		}
	}
}

// TestJumpMemo: the memo holds a Calibrator's whole lane grid at one
// replicate count without starting over; every exponent it holds maps to
// xPow's polynomial; and calibrating at more distinct (R, windows, m) than
// maxJumps leaves it at its bound.
func TestJumpMemo(t *testing.T) {
	jumps.Lock()
	jumps.poly = nil
	jumps.Unlock()
	per := uint64(CalibrationConfig{}.withDefaults().Replicates+lanes-1) / lanes
	var grid []uint64
	for _, w := range gridBuckets {
		for m := 1; m <= laneMaxM; m++ {
			grid = append(grid, per*uint64(w*m))
			jumpPoly(grid[len(grid)-1])
		}
	}
	jumps.Lock()
	for _, k := range grid {
		if _, ok := jumps.poly[k]; !ok {
			t.Errorf("the memo dropped x^%d within one grid of %d exponents (maxJumps %d)", k, len(grid), maxJumps)
			break
		}
	}
	jumps.Unlock()
	for w := 60; w < 60+maxJumps/2; w++ {
		for _, m := range []int{7, 10} {
			for _, r := range []int{lanes, 2 * lanes} { // one and two replicates a lane: exponent r/8 × windows × m
				if _, err := CalibrateL1(m, w, 0.9, CalibrationConfig{Seed: 3, Replicates: r}); err != nil {
					t.Fatal(err)
				}
				jumpPoly(uint64(r / lanes * w * m)) // the same exponents where no lane kernel runs
			}
		}
	}
	jumps.Lock()
	defer jumps.Unlock()
	if n := len(jumps.poly); n == 0 || n > maxJumps {
		t.Fatalf("jump memo holds %d exponents, want 1 … %d", n, maxJumps)
	}
	for k, p := range jumps.poly {
		if p != xPow(k) {
			t.Errorf("memo x^%d = %#x, xPow gives %#x", k, p, xPow(k))
		}
	}
}

// TestCalibrateL1LanesConcurrent: calibrations racing on the lane path (the
// Calibrator's first touches do) share only the jump table and the jump
// memo, and each lands on the scalar loop's bits — also when several are the
// first to ask for one exponent, at four window counts × two p̂ on an emptied
// memo; run it under -race.
func TestCalibrateL1LanesConcurrent(t *testing.T) {
	jumps.Lock()
	jumps.poly = nil
	jumps.Unlock()
	cfg := CalibrationConfig{Seed: 5, Replicates: 200}
	const askers = 8
	errs := make(chan error, askers)
	for g := 0; g < askers; g++ {
		go func(w int, p float64) {
			got, err := CalibrateL1(10, w, p, cfg)
			want, werr := scalarEpsilon(10, w, p, cfg)
			if err == nil && werr == nil && math.Float64bits(got) != math.Float64bits(want) {
				err = fmt.Errorf("w=%d p=%v: ε %v, scalar %v", w, p, got, want)
			}
			errs <- errors.Join(err, werr)
		}(20+g%4, []float64{0.9, 0.5}[g/4])
	}
	for g := 0; g < askers; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
