//go:build !purego

package stats

// laneKernel reports whether this CPU runs laneTally: AVX-512F, with the
// operating system saving the opmask and ZMM registers.
var laneKernel = hasAVX512F()

// laneTally steps the eight xoshiro256** states st (st[w][j] is word w of
// lane j) through windows windows of m draws each. A draw u is a success
// iff u < thr (uniformThreshold(p̂) << 11); acc[j] gets, for each window of
// lane j that counted c successes, one added to its five-bit field c. m and
// windows are positive, m ≤ laneMaxM and windows ≤ laneWindows.
//
//go:noescape
func laneTally(st *[4][lanes]uint64, acc *[lanes]uint64, thr uint64, m, windows int)

func cpuid(leaf, sub uint32) (a, b, c, d uint32)
func xgetbv() (a, d uint32)

func hasAVX512F() bool {
	if top, _, _, _ := cpuid(0, 0); top < 7 {
		return false
	}
	if _, _, c, _ := cpuid(1, 0); c&(1<<27) == 0 { // OSXSAVE: XGETBV is usable
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0xe6 != 0xe6 { // XMM, YMM, opmask, ZMM0-15 high, ZMM16-31
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<16) != 0 // AVX512F
}
