package stats

import (
	"errors"
	"fmt"
	"math"
)

// ErrInvalidDistribution reports parameters outside the valid domain of a
// distribution, a distance or a calibration.
var ErrInvalidDistribution = errors.New("stats: invalid distribution parameters")

// BinomialPMFInto fills dst, which must have length n+1, with the PMF of
// B(n, p). It is the one PMF: the behaviour testers' scratch tables, the
// calibration points and the wire's verdict chains all hold its bits.
//
// The fill is the multiplicative recurrence P(k+1) = P(k)·(p/q)·(n−k)/(k+1),
// walked up from q^n and down from p^n at once so that the two halves meet
// at n/2. It uses + − × ÷ alone, which IEEE-754 rounds the same on every
// platform, and wraps every product in float64(), which the Go spec makes
// round on its own rather than fuse into an add: the bits are the same on
// every GOARCH (ADR 0007). p ∈ {0, 1} are exact point masses. Past n = 255
// a tail power can underflow where its half still holds mass, so the
// behaviour testers refuse larger windows.
func BinomialPMFInto(dst []float64, n int, p float64) error {
	if n < 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("%w: B(%d, %v)", ErrInvalidDistribution, n, p)
	}
	if len(dst) != n+1 {
		return fmt.Errorf("%w: pmf buffer length %d for B(%d,·)", ErrInvalidDistribution, len(dst), n)
	}
	if p == 0 || p == 1 {
		clear(dst)
		dst[int(p)*n] = 1
		return nil
	}
	q := 1 - p
	lo, hi := pow(q, n), pow(p, n)
	up, down := p/q, q/p
	dst[0], dst[n] = lo, hi
	for j, k := 0, n; j < n/2; j, k = j+1, k-1 {
		r := float64(n-j) / float64(j+1)
		lo = float64(lo * float64(up*r))
		if hi != 0 { // where q/p overflows, p^n has underflowed: 0·∞ is no PMF entry
			hi = float64(hi * float64(down*r))
		}
		dst[j+1], dst[k-1] = lo, hi
	}
	return nil
}

// pow returns x^e by squaring, every product rounded on its own.
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
