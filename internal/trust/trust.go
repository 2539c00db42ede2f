// Package trust implements the phase-2 trust functions of the paper's
// two-phase framework: given a server's transaction history, each function
// maps it to a trust value in [0, 1] interpreted as the predicted
// probability that the next transaction will be satisfactory.
//
// The two functions evaluated in the paper — the average trust function and
// the weighted (EWMA) trust function of Fan et al. — are implemented
// together with the Beta reputation system, the third function a node
// serves (trustd -trust beta).
package trust

import (
	"errors"
	"fmt"
	"math"

	"honestplayer/internal/feedback"
)

// Errors returned by trust functions.
var (
	// ErrEmptyHistory reports evaluation over a history with no records.
	ErrEmptyHistory = errors.New("trust: empty history")
	// ErrInvalidParam reports an out-of-range function parameter.
	ErrInvalidParam = errors.New("trust: invalid parameter")
)

// Func is a trust function: a mapping from a server's feedback history to a
// trust value in [0, 1] (§2). Implementations must be stateless with respect
// to the history: two calls with equal histories return equal values.
type Func interface {
	// Name identifies the function in reports and experiment output.
	Name() string
	// Evaluate returns the trust value for the given history. It returns
	// ErrEmptyHistory when no transactions are recorded.
	Evaluate(h *feedback.History) (float64, error)
}

// Tracker is the incremental counterpart of a Func: it consumes outcomes
// one at a time in O(1) and reports the running trust value. Only this
// package's trackers implement it: each copies itself for
// Accumulator.Clone.
type Tracker interface {
	// Update consumes the outcome of the next transaction.
	Update(good bool)
	// Value returns the current trust value; NaN before any update for
	// functions undefined on empty histories.
	Value() float64
	// clone returns an independent copy of the tracker.
	clone() Tracker
}

// TrackerFunc is a Func that can also mint an incremental Tracker whose
// Value after consuming a history's outcomes equals Evaluate on it.
type TrackerFunc interface {
	Func
	NewTracker() Tracker
}

// Average is the average trust function: the ratio of good transactions
// over all transactions. As argued in the paper (after [13]), it is the
// most cost-effective function in complex systems and the first baseline of
// the evaluation.
type Average struct{}

var _ TrackerFunc = Average{}

// Name implements Func.
func (Average) Name() string { return "average" }

// Evaluate implements Func.
func (Average) Evaluate(h *feedback.History) (float64, error) {
	if h.Len() == 0 {
		return 0, ErrEmptyHistory
	}
	return h.GoodRatio(), nil
}

// NewTracker implements TrackerFunc.
func (Average) NewTracker() Tracker { return &averageTracker{} }

type averageTracker struct {
	n, good int
}

func (t *averageTracker) Update(good bool) {
	t.n++
	if good {
		t.good++
	}
}

func (t *averageTracker) Value() float64 {
	if t.n == 0 {
		return math.NaN()
	}
	return float64(t.good) / float64(t.n)
}

func (t *averageTracker) clone() Tracker { c := *t; return &c }

// Weighted is the weighted trust function of Fan et al. [15]:
// R_t = λ·f_t + (1−λ)·R_{t−1}, an exponentially weighted moving average
// that reacts to recent behaviour. The paper's experiments use λ = 0.5.
type Weighted struct {
	// Lambda is the weight of the most recent feedback, in (0, 1].
	Lambda float64
	// Initial is the trust value before any transaction; the neutral prior
	// 0.5 is conventional.
	Initial float64
}

var _ TrackerFunc = Weighted{}

// NewWeighted returns a Weighted function with the given λ and a neutral
// initial value of 0.5. It returns ErrInvalidParam for λ outside (0, 1].
func NewWeighted(lambda float64) (Weighted, error) {
	if math.IsNaN(lambda) || lambda <= 0 || lambda > 1 {
		return Weighted{}, fmt.Errorf("%w: lambda=%v", ErrInvalidParam, lambda)
	}
	return Weighted{Lambda: lambda, Initial: 0.5}, nil
}

// Name implements Func.
func (w Weighted) Name() string { return fmt.Sprintf("weighted(λ=%g)", w.Lambda) }

// Evaluate implements Func.
func (w Weighted) Evaluate(h *feedback.History) (float64, error) {
	if h.Len() == 0 {
		return 0, ErrEmptyHistory
	}
	t := w.NewTracker()
	for i := 0; i < h.Len(); i++ {
		t.Update(h.RatingAt(i).Good())
	}
	return t.Value(), nil
}

// NewTracker implements TrackerFunc.
func (w Weighted) NewTracker() Tracker {
	return &ewmaTracker{lambda: w.Lambda, initial: w.Initial, value: w.Initial}
}

type ewmaTracker struct {
	lambda, initial, value float64
	updated                bool
}

func (t *ewmaTracker) Update(good bool) {
	f := 0.0
	if good {
		f = 1
	}
	t.value = float64(t.lambda*f) + float64((1-t.lambda)*t.value) // no fused multiply-add
	t.updated = true
}

func (t *ewmaTracker) Value() float64 {
	if !t.updated {
		return math.NaN()
	}
	return t.value
}

func (t *ewmaTracker) clone() Tracker { c := *t; return &c }

// Beta is the Beta reputation system of Ismail & Jøsang [16]: the posterior
// mean (good+1)/(n+2) of a Beta(1,1)-prior Bernoulli model. Unlike Average
// it is defined on the empty history (value 0.5) but for interface
// uniformity it still reports ErrEmptyHistory there.
type Beta struct{}

var _ TrackerFunc = Beta{}

// Name implements Func.
func (Beta) Name() string { return "beta" }

// Evaluate implements Func.
func (Beta) Evaluate(h *feedback.History) (float64, error) {
	if h.Len() == 0 {
		return 0, ErrEmptyHistory
	}
	return (float64(h.GoodCount()) + 1) / (float64(h.Len()) + 2), nil
}

// NewTracker implements TrackerFunc.
func (Beta) NewTracker() Tracker { return &betaTracker{} }

type betaTracker struct {
	n, good int
}

func (t *betaTracker) Update(good bool) {
	t.n++
	if good {
		t.good++
	}
}

func (t *betaTracker) Value() float64 {
	if t.n == 0 {
		return math.NaN()
	}
	return (float64(t.good) + 1) / (float64(t.n) + 2)
}

func (t *betaTracker) clone() Tracker { c := *t; return &c }
