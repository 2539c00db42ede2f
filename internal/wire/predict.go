package wire

import "math"

// The chain shape of a verdict table (verdict.go) sends each Distance as its
// difference, in bits, from a prediction both ends compute. The prediction is
// what a tester computes — the L¹ distance of a window histogram from
// B(m, p̂) — but from a PMF built with + − × ÷ alone. IEEE-754 rounds those
// exactly the same on every platform; math.Exp and math.Log do not (ADR
// 0007), and neither does a product fused into an add. So every product
// below is wrapped in float64(), which the Go spec makes round on its own,
// and a receiver on any GOARCH rebuilds the sender's Distance bit for bit.
// Change nothing here without a new wire.VersionV2: TestPredictorGolden pins
// the arithmetic.

// canonicalNaN is the one NaN a prediction takes: NaN payloads from an
// invalid operation differ by architecture.
const canonicalNaN = 0x7ff8000000000001

// maxBases caps the base search: a table whose shortest row has more
// candidate histograms than this keeps its Distance column raw.
const maxBases = 4096

// predictor computes B(m, p) for one m: it keeps the ratios (m−j)/(j+1)
// its recurrence steps by, the PMF it last filled, and the histograms a
// chain is walked with, as floats so that a distance converts no counts. An
// encoder or decoder makes one per table.
type predictor struct {
	ratio, pmf, hist, best []float64
}

// newPredictor returns a predictor for window size m, its histograms zero.
func newPredictor(m int) *predictor {
	f := make([]float64, 4*m+3)
	pr := &predictor{ratio: f[:m:m], pmf: f[m : 2*m+1 : 2*m+1], hist: f[2*m+1 : 3*m+2 : 3*m+2], best: f[3*m+2:]}
	for j := range pr.ratio {
		pr.ratio[j] = float64(m-j) / float64(j+1)
	}
	return pr
}

// fill sets pr.pmf to B(m, p), by the multiplicative recurrence
// P(k+1) = P(k)·(p/q)·(m−k)/(k+1), walked up from q^m and down from p^m at
// once so that the two halves meet at m/2. p ∈ {0, 1} are exact point
// masses, as stats.BinomialPMFInto has them.
func (pr *predictor) fill(p float64) {
	m, pmf := len(pr.ratio), pr.pmf
	if p == 0 || p == 1 {
		clear(pmf)
		pmf[int(p)*m] = 1
		return
	}
	q := 1 - p
	lo, hi := pow(q, m), pow(p, m)
	up, down := p/q, q/p
	pmf[0], pmf[m] = lo, hi
	for j, k := 0, m; j < m/2; j, k = j+1, k-1 {
		lo = float64(lo * float64(up*pr.ratio[j]))
		hi = float64(hi * float64(down*pr.ratio[j]))
		pmf[j+1], pmf[k-1] = lo, hi
	}
}

// pow returns x^e by squaring.
func pow(x float64, e int) float64 {
	y := 1.0
	for ; e > 0; e >>= 1 {
		if e&1 != 0 {
			y = float64(y * x)
		}
		x = float64(x * x)
	}
	return y
}

// distance returns the bits of Σ_k |hist[k]·(1/w) − pmf[k]|, summed in k's
// order, with any NaN canonical.
func (pr *predictor) distance(hist []float64, w int) uint64 {
	inv, d := 1/float64(w), 0.0
	for k, c := range hist {
		d += math.Abs(float64(c*inv) - pr.pmf[k])
	}
	if d != d {
		return canonicalNaN
	}
	return math.Float64bits(d)
}

// predictionError is how far, in the residual's own unsigned form, a
// distance's bits lie from a prediction: the residual's varint grows with it.
func predictionError(distance float64, pred uint64) uint64 {
	r := int64(math.Float64bits(distance) - pred)
	return uint64(r<<1) ^ uint64(r>>63)
}

// chainBase sets pr.best to the histogram of w windows over [0, m], with g
// good transactions among them, whose predicted distance at p lies closest
// to distance: the shortest row of a chain, whose windows no delta names.
// The first closest in eachBase's order wins, the first candidate whatever
// its error, so that a base is written even when every error is the largest
// (a −0 Distance against a +0 prediction). It reports false past maxBases
// candidates. Closest is a guess, never a requirement: a wrong pick costs
// the longer rows' residuals bytes, not their bits.
func chainBase(pr *predictor, w, g int, p, distance float64) bool {
	m := len(pr.ratio)
	if g < 0 || g > w*m {
		return false
	}
	pr.fill(p)
	seen, bestErr := 0, uint64(math.MaxUint64)
	return eachBase(pr.hist, 0, w, g, func() bool {
		if seen++; seen > maxBases {
			return false
		}
		if e := predictionError(distance, pr.distance(pr.hist, w)); seen == 1 || e < bestErr {
			bestErr = e
			copy(pr.best, pr.hist)
		}
		return true
	})
}

// eachBase calls visit with hist holding, in turn, every way to spread w
// windows over the values v..m with g good transactions among them: the
// fewest windows at v first, then recursively. It stops, reporting false,
// when visit does.
func eachBase(hist []float64, v, w, g int, visit func() bool) bool {
	m := len(hist) - 1
	for v < m && w*(v+1) <= g && w*m-g < m-v {
		v++ // no window can take the value v
	}
	if v == m {
		if w*m != g {
			return true
		}
		hist[m] = float64(w)
		ok := visit()
		hist[m] = 0
		return ok
	}
	// c windows at v leave w−c windows in [v+1, m] to hold g − c·v, which
	// they can exactly when (w−c)(v+1) <= g − c·v <= (w−c)·m.
	lo, hi := max(0, w*(v+1)-g), min(w, (w*m-g)/(m-v))
	for c := lo; c <= hi; c++ {
		hist[v] = float64(c)
		if !eachBase(hist, v+1, w-c, g-c*v, visit) {
			hist[v] = 0
			return false
		}
	}
	hist[v] = 0
	return true
}
