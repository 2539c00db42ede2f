package stats

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// ErrInvalidDistribution reports parameters outside the valid domain of a
// distribution, a distance or a calibration.
var ErrInvalidDistribution = errors.New("stats: invalid distribution parameters")

// BinomialPMFInto fills dst, which must have length n+1, with the PMF of
// B(n, p), computed in log space for numerical stability. It is the one
// fill code path: the behaviour testers' scratch tables, the accumulators'
// PMF memo and the calibration points all hold its bits.
func BinomialPMFInto(dst []float64, n int, p float64) error {
	if n < 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("%w: B(%d, %v)", ErrInvalidDistribution, n, p)
	}
	if len(dst) != n+1 {
		return fmt.Errorf("%w: pmf buffer length %d for B(%d,·)", ErrInvalidDistribution, len(dst), n)
	}
	switch {
	case p == 0:
		clear(dst)
		dst[0] = 1
	case p == 1:
		clear(dst)
		dst[n] = 1
	default:
		logP, logQ := math.Log(p), math.Log1p(-p)
		for k, lc := range logChoose(n) {
			dst[k] = math.Exp(lc + float64(k)*logP + float64(n-k)*logQ)
		}
	}
	return nil
}

// logChooseTables caches logChoose(n) for the window sizes in use: the three
// Lgamma terms of a PMF entry depend on (n, k) only, and were two thirds of
// a fill's time. A pure function of n, so racing builders publish equal
// tables and a hit is one atomic load — no lock, nothing per server (ADR
// 0002). Larger n are computed per call, as every n used to be.
var logChooseTables [257]atomic.Pointer[[]float64]

// logChoose returns log C(n, k) for k = 0..n, each as (lgN − lgK) − lgNK in
// that order, so BinomialPMFInto's sum reproduces the uncached expression
// lgN − lgK − lgNK + k·logP + (n−k)·logQ bit for bit.
func logChoose(n int) []float64 {
	if n < len(logChooseTables) {
		if lc := logChooseTables[n].Load(); lc != nil {
			return *lc
		}
	}
	lc := make([]float64, n+1)
	lgN, _ := math.Lgamma(float64(n) + 1)
	for k := range lc {
		lgK, _ := math.Lgamma(float64(k) + 1)
		lgNK, _ := math.Lgamma(float64(n-k) + 1)
		lc[k] = lgN - lgK - lgNK
	}
	if n < len(logChooseTables) {
		logChooseTables[n].Store(&lc)
	}
	return lc
}
