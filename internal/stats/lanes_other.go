//go:build !amd64 || purego

package stats

// laneKernel is false where no lane kernel is built: CalibrateL1 runs the
// scalar loop.
const laneKernel = false

func laneTally(*[4][lanes]uint64, *[lanes]uint64, uint64, int, int) {
	panic("stats: no lane kernel in this build")
}
