package stats

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Default calibration parameters. The paper selects ε as the 95 % confidence
// threshold estimated from a "reasonably large" number of randomly generated
// sample sets; 1000 replicates keeps the quantile estimate stable to ~0.01.
const (
	DefaultConfidence = 0.95
	DefaultReplicates = 1000
)

// CalibrationConfig controls the Monte-Carlo estimation of the L¹ distance
// threshold ε.
type CalibrationConfig struct {
	// Confidence is the quantile of the null distance distribution used as
	// the threshold (paper: 0.95). Zero means DefaultConfidence.
	Confidence float64
	// Replicates is the number of sample sets generated (paper: "reasonably
	// large"). Zero means DefaultReplicates.
	Replicates int
	// Seed feeds the deterministic generator. The replicate stream is a pure
	// function of (Seed, m, numWindows, pHat), so results are reproducible
	// and cache hits are indistinguishable from recomputation.
	Seed uint64
}

func (c CalibrationConfig) withDefaults() CalibrationConfig {
	if c.Confidence == 0 {
		c.Confidence = DefaultConfidence
	}
	if c.Replicates == 0 {
		c.Replicates = DefaultReplicates
	}
	return c
}

// CalibrateL1 estimates the distance threshold ε for a behaviour test over
// numWindows windows of m transactions by a server with estimated
// trustworthiness pHat: it generates cfg.Replicates sample sets from
// B(m, pHat), measures each set's L¹ distance, and returns the
// cfg.Confidence quantile. An honest player therefore fails the test with
// probability ≈ 1 − cfg.Confidence.
//
// Cost model: Replicates × numWindows × m uniforms (m ≤ 64; none at pHat 0
// or 1), ~2.4 ns each scalar and ~0.4 ns in the eight lanes AVX-512F CPUs run
// for m ≤ 11 (CalibrationKernel), plus ~20–25 µs a call on the lanes at 1,000
// replicates: seven jumpBy walks from one memoised jump polynomial, the
// distances (read off the packed tallies up to 2·laneWindows windows), the
// call's one allocation and the quantile select. BenchmarkCalibrateL1 at
// -cpu 1 reads 31–52 µs at 4 windows, 46–59 µs at 8, about half of it
// uniforms, and 173–199 µs at 50 (2-vCPU Xeon). Which uniforms, and in which
// order, is part of the reproduction contract (ADR 0007); both paths keep it.
func CalibrateL1(m, numWindows int, pHat float64, cfg CalibrationConfig) (float64, error) {
	cfg = cfg.withDefaults()
	if m <= 0 || numWindows <= 0 {
		return 0, fmt.Errorf("%w: m=%d windows=%d", ErrInvalidDistribution, m, numWindows)
	}
	if cfg.Replicates < 0 || !(cfg.Confidence > 0 && cfg.Confidence < 1) {
		return 0, fmt.Errorf("%w: replicates=%d confidence=%v", ErrInvalidDistribution, cfg.Replicates, cfg.Confidence)
	}
	pt, err := newCalibPoint(m, numWindows, pHat, cfg)
	if err != nil {
		return 0, err
	}
	if takesLanes(m, numWindows, cfg.Replicates, pHat) {
		err = pt.fillLanes(pt.dists)
	} else {
		err = pt.fillScalar(pt.dists)
	}
	if err != nil {
		return 0, err
	}
	return SelectQuantile(pt.dists, cfg.Confidence), nil
}

// calibPoint is one CalibrateL1 call's grid point: its stream, the PMF
// each replicate's tally is measured against, and a distance per replicate.
type calibPoint struct {
	m, numWindows int
	pHat          float64
	seed          uint64
	pmf, dists    []float64
}

// newCalibPoint fails, as BinomialPMFInto does, on a pHat outside [0, 1]. It
// inlines, so CalibrateL1's point lives on its stack.
func newCalibPoint(m, numWindows int, pHat float64, cfg CalibrationConfig) (*calibPoint, error) {
	pt := new(calibPoint)
	return pt, pt.init(m, numWindows, pHat, cfg)
}

// init sets the point up with one allocation, which the PMF and the
// distances share.
func (pt *calibPoint) init(m, numWindows int, pHat float64, cfg CalibrationConfig) error {
	buf := make([]float64, m+1+cfg.Replicates)
	*pt = calibPoint{m: m, numWindows: numWindows, pHat: pHat, pmf: buf[: m+1 : m+1], dists: buf[m+1:],
		seed: calibSeed(cfg.Seed, m, numWindows, pHat)}
	return BinomialPMFInto(pt.pmf, m, pHat)
}

// maxStackTally is the widest window whose scalar tally needs no allocation.
const maxStackTally = 64

// fillScalar fills dists with one replicate's distance each, replicate after
// replicate: the reference order of the calibration stream.
func (pt *calibPoint) fillScalar(dists []float64) error {
	rng := NewRNG(pt.seed)
	var stack [maxStackTally + 1]int64
	tally := stack[:]
	if pt.m > maxStackTally {
		tally = make([]int64, pt.m+1)
	}
	tally = tally[:pt.m+1]
	for r := range dists {
		clear(tally)
		rng.BinomialTally(tally, pt.m, pt.pHat, pt.numWindows)
		var err error
		if dists[r], err = pt.distance(tally); err != nil {
			return err
		}
	}
	return nil
}

// distance is one replicate's L¹ distance from the fixed B(m, p̂), given its
// window tally.
func (pt *calibPoint) distance(tally []int64) (float64, error) {
	return L1CountsDistance(tally, int64(pt.numWindows), pt.pmf)
}

// calibSeed mixes the calibration key into a single deterministic seed.
func calibSeed(seed uint64, m, numWindows int, pHat float64) uint64 {
	h := seed ^ 0x8f1bbcdcbfa53e0b
	mix := func(v uint64) {
		h ^= v
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	mix(uint64(m))
	mix(uint64(numWindows))
	mix(math.Float64bits(pHat))
	return h
}

// Calibrator computes and caches ε thresholds on a discretised
// (m, numWindows, pHat) grid. Multi-testing over an 800 000-transaction
// history evaluates tens of thousands of suffixes; Monte-Carlo calibration
// per suffix would dominate the runtime, so the cache buckets numWindows
// geometrically and pHat to a fixed resolution, trading a small threshold
// discretisation for amortised O(1) lookups.
//
// The grid is direct-indexed and lock-free on a hit: a window count resolves
// to its bucket through a table built once, a (m, confidence bucket) pair to
// its plane through a copy-on-write map, and a grid point to one atomic
// slot. A miss calibrates the point exactly once — concurrent askers of the
// same point park on the first one's Monte-Carlo run instead of repeating it.
// That run is CalibrateL1 at the bucket representative, so a cold grid costs
// its uniforms plus ~20–25 µs a point (see CalibrateL1), the fixed part about
// a third of a short history's grid: the first request to touch a point pays
// it inline.
//
// Calibrator is safe for concurrent use.
type Calibrator struct {
	cfg         CalibrationConfig
	pResolution float64
	pStride     int // p̂ buckets per plane row: bucketP(1) + 1

	planes atomic.Pointer[map[planeKey]*gridPlane]
	points atomic.Int64 // grid points calibrated so far

	mu       sync.Mutex // guards plane/row creation and inflight
	inflight map[calibKey]*calibCall
}

// DefaultMaxCalibrationWindows bounds the window count that is calibrated by
// direct Monte-Carlo. Beyond it the threshold is extrapolated by the 1/√w
// concentration law of the null L¹ distance (each bin's empirical frequency
// deviates from its PMF by O(√(pmf·(1−pmf)/w)), so the summed distance
// shrinks like 1/√w). Direct calibration at 100 000+ windows would cost
// minutes per grid point for a threshold change within estimation noise.
const DefaultMaxCalibrationWindows = 4096

// DefaultPResolution is the p̂ bucket width of a Calibrator given none.
const DefaultPResolution = 0.01

// The window grid, shared by every Calibrator: gridIndex takes a window
// count up to DefaultMaxCalibrationWindows to its bucket's index, and
// gridBuckets an index to the bucket's representative, the window count its
// points are calibrated at.
var gridIndex, gridBuckets = windowGrid()

func windowGrid() (index []uint8, buckets []int) {
	index = make([]uint8, DefaultMaxCalibrationWindows+1)
	for w := 1; w <= DefaultMaxCalibrationWindows; w++ {
		if b := bucketWindows(w); len(buckets) == 0 || b != buckets[len(buckets)-1] {
			buckets = append(buckets, b)
		}
		index[w] = uint8(len(buckets) - 1)
	}
	return index, buckets
}

// GridPoint is the point of a Calibrator's grid that a threshold query lands
// on: the window bucket and the p̂ bucket whose Monte-Carlo ε answers it and,
// past DefaultMaxCalibrationWindows, the window count that ε is scaled to by
// 1/√w. Queries of one Plane at the same GridPoint get the same ε, bit for
// bit, so a receiver that knows a threshold's GridPoint and plane knows the
// threshold.
type GridPoint struct {
	Window int // the window bucket's index, from 0
	P      int // the p̂ bucket: p̂ over the resolution, rounded
	Scaled int // the window count past DefaultMaxCalibrationWindows, else 0
}

// GridPointOf is the GridPoint of a query over numWindows windows, at least
// one, at an estimated trustworthiness pHat that is not NaN, on a grid of p̂
// resolution pResolution. Plane.Threshold resolves every query through it.
func GridPointOf(numWindows int, pHat, pResolution float64) GridPoint {
	g := GridPoint{P: bucketP(pHat, pResolution)}
	if numWindows > DefaultMaxCalibrationWindows {
		g.Scaled, numWindows = numWindows, DefaultMaxCalibrationWindows
	}
	g.Window = int(gridIndex[numWindows])
	return g
}

type planeKey struct {
	m          int
	confBucket int
}

type calibKey struct {
	planeKey
	wIdx    int
	pBucket int
}

// gridPlane holds the thresholds of one (m, confidence bucket) pair: one row
// per windows bucket, allocated on first touch, of pStride slots. A slot
// holds the bitwise complement of the threshold's float64 bits, so the zero
// value marks "not calibrated yet" (no threshold complements to zero: that
// would be a NaN the quantile of finite distances never yields).
type gridPlane struct {
	rows []atomic.Pointer[[]atomic.Uint64]
}

var errCalibrationAborted = errors.New("stats: calibration aborted")

// calibCall is one in-flight grid-point calibration other askers wait on.
type calibCall struct {
	done chan struct{}
	eps  float64
	err  error
}

// NewCalibrator returns a Calibrator with the given Monte-Carlo
// configuration. pResolution is the p̂ bucket width; zero means
// DefaultPResolution.
func NewCalibrator(cfg CalibrationConfig, pResolution float64) *Calibrator {
	if pResolution <= 0 {
		pResolution = DefaultPResolution
	}
	return &Calibrator{
		cfg:         cfg.withDefaults(),
		pResolution: pResolution,
		pStride:     bucketP(1, pResolution) + 1,
		inflight:    make(map[calibKey]*calibCall),
	}
}

// Config returns the calibration configuration in use.
func (c *Calibrator) Config() CalibrationConfig { return c.cfg }

// Threshold returns the cached or freshly computed ε for a test over
// numWindows windows of m transactions with estimated trustworthiness pHat,
// at the calibrator's configured confidence: Plane(m, confidence) asked for
// one point.
func (c *Calibrator) Threshold(m, numWindows int, pHat float64) (float64, error) {
	p, err := c.Plane(m, c.cfg.Confidence)
	if err != nil {
		return 0, err
	}
	return p.Threshold(numWindows, pHat)
}

// Plane is the calibrator's grid restricted to one window size and one
// confidence level. A multi-test resolves it once and then asks it for every
// suffix's threshold, which in steady state is two table loads and a
// multiply. The zero value is not useful; obtain one from Calibrator.Plane.
type Plane struct {
	c          *Calibrator
	grid       *gridPlane
	key        planeKey
	confidence float64 // exact level, used when a point must be calibrated
}

// Plane resolves (m, confidence) to its grid plane. Confidences are
// bucketed to 1e-4; all levels in a bucket share its thresholds. A
// multi-tester applying a familywise correction across suffixes asks for a
// level above the configured one; the achievable quantile resolution is
// limited by the replicate count, and confidences beyond it degrade to the
// sample maximum.
func (c *Calibrator) Plane(m int, confidence float64) (Plane, error) {
	if math.IsNaN(confidence) || confidence <= 0 || confidence >= 1 {
		return Plane{}, fmt.Errorf("%w: confidence=%v", ErrInvalidDistribution, confidence)
	}
	key := planeKey{m: m, confBucket: int(math.Round(confidence * 1e4))}
	var grid *gridPlane
	if planes := c.planes.Load(); planes != nil {
		grid = (*planes)[key]
	}
	if grid == nil {
		grid = c.addPlane(key)
	}
	return Plane{c: c, grid: grid, key: key, confidence: confidence}, nil
}

// addPlane publishes a plane for key by copy-on-write, so readers never
// lock: planes are few (one per window size and confidence bucket in use).
func (c *Calibrator) addPlane(key planeKey) *gridPlane {
	c.mu.Lock()
	defer c.mu.Unlock()
	var old map[planeKey]*gridPlane
	if planes := c.planes.Load(); planes != nil {
		old = *planes
	}
	if grid := old[key]; grid != nil {
		return grid
	}
	next := make(map[planeKey]*gridPlane, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	grid := &gridPlane{rows: make([]atomic.Pointer[[]atomic.Uint64], len(gridBuckets))}
	next[key] = grid
	c.planes.Store(&next)
	return grid
}

// Threshold returns ε for a test over numWindows windows with estimated
// trustworthiness pHat: the Monte-Carlo threshold of the grid point the
// query falls on, times the 1/√w extrapolation factor beyond the calibrated
// range. Queries resolving to the same grid point share the grid threshold
// bit for bit.
func (p Plane) Threshold(numWindows int, pHat float64) (float64, error) {
	c := p.c
	if numWindows <= 0 || math.IsNaN(pHat) {
		return 0, fmt.Errorf("%w: windows=%d pHat=%v", ErrInvalidDistribution, numWindows, pHat)
	}
	// Beyond the Monte-Carlo budget, calibrate at its last bucket and apply
	// the 1/√w extrapolation.
	g := GridPointOf(numWindows, pHat, c.pResolution)
	scale := 1.0
	if g.Scaled > 0 {
		scale = math.Sqrt(float64(DefaultMaxCalibrationWindows) / float64(g.Scaled))
	}
	if row := p.grid.rows[g.Window].Load(); row != nil {
		if v := (*row)[g.P].Load(); v != 0 {
			return math.Float64frombits(^v) * scale, nil
		}
	}
	eps, err := c.calibrate(p, g.Window, g.P)
	if err != nil {
		return 0, err
	}
	return eps * scale, nil
}

// calibrate fills one grid point, single-flight: the first asker runs the
// Monte-Carlo estimate, concurrent askers of the same point wait for it.
// Errors are not cached.
func (c *Calibrator) calibrate(p Plane, wIdx, pBucket int) (float64, error) {
	key := calibKey{planeKey: p.key, wIdx: wIdx, pBucket: pBucket}
	c.mu.Lock()
	row := p.grid.rows[wIdx].Load()
	if row == nil {
		r := make([]atomic.Uint64, c.pStride)
		row = &r
		p.grid.rows[wIdx].Store(row)
	}
	slot := &(*row)[pBucket]
	if v := slot.Load(); v != 0 {
		c.mu.Unlock()
		return math.Float64frombits(^v), nil
	}
	if call := c.inflight[key]; call != nil {
		c.mu.Unlock()
		<-call.done
		return call.eps, call.err
	}
	// The error stands until the estimate returns, so waiters of a run that
	// panicked are released with it instead of with a zero threshold.
	call := &calibCall{done: make(chan struct{}), err: errCalibrationAborted}
	c.inflight[key] = call
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		if call.err == nil {
			slot.Store(^math.Float64bits(call.eps))
			c.points.Add(1)
		}
		delete(c.inflight, key)
		c.mu.Unlock()
		close(call.done)
	}()
	pGrid := float64(pBucket) * c.pResolution
	if pGrid > 1 {
		pGrid = 1
	}
	cfg := c.cfg
	cfg.Confidence = p.confidence
	call.eps, call.err = CalibrateL1(p.key.m, gridBuckets[wIdx], pGrid, cfg)
	return call.eps, call.err
}

// CacheSize returns the number of grid points calibrated so far.
func (c *Calibrator) CacheSize() int { return int(c.points.Load()) }

// bucketP is pHat's bucket at resolution res, pHat clamped to [0, 1].
func bucketP(pHat, res float64) int {
	if pHat < 0 {
		pHat = 0
	}
	if pHat > 1 {
		pHat = 1
	}
	return int(math.Round(pHat / res))
}

// bucketWindows rounds the window count to a geometric grid (ratio ≈ 1.25)
// so that the null distribution, whose spread shrinks like 1/√windows, is
// approximated within a few percent by the bucket representative.
func bucketWindows(w int) int {
	if w <= 4 {
		return w
	}
	bucket := 4.0
	for bucket*1.25 <= float64(w) {
		bucket *= 1.25
	}
	lo := int(math.Round(bucket))
	hi := int(math.Round(bucket * 1.25))
	if w-lo <= hi-w {
		return lo
	}
	return hi
}
