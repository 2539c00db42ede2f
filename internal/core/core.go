// Package core implements the paper's primary contribution: the two-phase
// approach to trust assessment (Fig. 1). Phase 1 checks the server's
// transaction history against the statistical model of honest players
// (package behavior); only when the history is consistent with the model is
// a conventional trust function (package trust) applied in phase 2.
//
// Servers that fail phase 1 are reported as suspicious and receive no trust
// value — an adversary therefore cannot benefit from manipulating the trust
// function unless its whole transaction pattern stays statistically
// indistinguishable from an honest player's, which is precisely what raises
// the cost of hibernating, periodic and collusion attacks.
package core

import (
	"errors"
	"fmt"

	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// ShortHistoryPolicy decides what to do with servers whose history is too
// short for behaviour testing. The paper treats them as a high-risk group
// (§7): rejecting them is the safe default, but low-risk transactions may
// relax testing so new servers can build reputation.
type ShortHistoryPolicy int

const (
	// RejectShort treats untestable servers as suspicious (default).
	RejectShort ShortHistoryPolicy = iota + 1
	// AllowShort skips phase 1 for untestable servers and applies the trust
	// function directly.
	AllowShort
)

// String implements fmt.Stringer.
func (p ShortHistoryPolicy) String() string {
	switch p {
	case RejectShort:
		return "reject-short"
	case AllowShort:
		return "allow-short"
	default:
		return fmt.Sprintf("ShortHistoryPolicy(%d)", int(p))
	}
}

// Assessment is the outcome of a two-phase trust assessment.
type Assessment struct {
	// Server is the assessed service provider.
	Server feedback.EntityID `json:"server"`
	// Suspicious reports that phase 1 flagged the server; Trust is
	// meaningless (zero) in that case.
	Suspicious bool `json:"suspicious,omitempty"`
	// ShortHistory reports that the history was too short to behaviour-test
	// and the configured policy decided the outcome.
	ShortHistory bool `json:"shortHistory,omitempty"`
	// Trust is the phase-2 trust value; valid only when !Suspicious.
	Trust float64 `json:"trust"`
	// TrustLow and TrustHigh bound the underlying good-transaction ratio
	// with a 95% Wilson score interval — a trust value over 10
	// transactions is far less certain than the same value over 10 000.
	TrustLow  float64 `json:"trustLow"`
	TrustHigh float64 `json:"trustHigh"`
	// Records and Good are the history's length and good count when it was
	// judged — what every assessment was computed over, suspicious and short
	// ones included. Under the average trust function Trust is Good/Records
	// and the interval is TrustInterval(Good, Records).
	Records int `json:"records"`
	Good    int `json:"good"`
	// Verdict carries the per-suffix behaviour-test details when phase 1
	// ran; it is omitted from the wire encoding when phase 1 never ran
	// (no tester, or a short history), keeping trust-only responses lean.
	Verdict behavior.Verdict `json:"verdict,omitzero"`
	// Tester and TrustFunc name the components that produced this
	// assessment.
	Tester    string `json:"tester,omitempty"`
	TrustFunc string `json:"trustFunc"`
}

// TwoPhase combines a behaviour tester with a trust function.
type TwoPhase struct {
	tester behavior.Tester
	fn     trust.Func
	policy ShortHistoryPolicy
}

// Option configures a TwoPhase assessor.
type Option func(*TwoPhase)

// WithShortHistoryPolicy overrides the default RejectShort policy.
func WithShortHistoryPolicy(p ShortHistoryPolicy) Option {
	return func(tp *TwoPhase) { tp.policy = p }
}

// NewTwoPhase returns an assessor running tester as phase 1 and fn as phase
// 2. A nil tester disables phase 1 entirely (the conventional single-trust-
// function baseline the paper compares against); fn must be non-nil.
func NewTwoPhase(tester behavior.Tester, fn trust.Func, opts ...Option) (*TwoPhase, error) {
	if fn == nil {
		return nil, errors.New("core: nil trust function")
	}
	tp := &TwoPhase{tester: tester, fn: fn, policy: RejectShort}
	for _, o := range opts {
		o(tp)
	}
	if tp.policy != RejectShort && tp.policy != AllowShort {
		return nil, fmt.Errorf("core: invalid short-history policy %d", int(tp.policy))
	}
	return tp, nil
}

// Name describes the assessor as "tester+trustfunc".
func (tp *TwoPhase) Name() string {
	if tp.tester == nil {
		return tp.fn.Name()
	}
	return tp.tester.Name() + "+" + tp.fn.Name()
}

// Tester returns the phase-1 tester (nil when phase 1 is disabled).
func (tp *TwoPhase) Tester() behavior.Tester { return tp.tester }

// TrustFunc returns the phase-2 trust function.
func (tp *TwoPhase) TrustFunc() trust.Func { return tp.fn }

// trustZ is the normal quantile of an assessment's 95% trust interval.
const trustZ = 1.96

// TrustInterval is the 95% Wilson score interval an assessment of good out
// of n records carries around its trust value: TrustLow and TrustHigh.
func TrustInterval(good, n int) (lo, hi float64, err error) {
	return stats.WilsonInterval(good, n, trustZ)
}

// Assess runs the two-phase assessment on the server's history: phase 1
// runs only when the assessor has a tester, and phase 2, which yields the
// trust value, never runs for a suspicious server.
func (tp *TwoPhase) Assess(h *feedback.History) (Assessment, error) {
	n, good := h.Len(), h.GoodCount()
	a := Assessment{Server: h.Server(), TrustFunc: tp.fn.Name(), Records: n, Good: good}
	if tp.tester != nil {
		a.Tester = tp.tester.Name()
		v, err := tp.tester.Test(h)
		switch {
		case errors.Is(err, behavior.ErrInsufficientHistory):
			a.ShortHistory = true
			if tp.policy == RejectShort {
				a.Suspicious = true
				return a, nil
			}
		case err != nil:
			return a, fmt.Errorf("behaviour test: %w", err)
		default:
			a.Verdict = v
			if !v.Honest {
				a.Suspicious = true
				return a, nil
			}
		}
	}
	value, err := tp.fn.Evaluate(h)
	if err != nil {
		return a, fmt.Errorf("trust function: %w", err)
	}
	a.Trust = value
	if n > 0 {
		lo, hi, err := TrustInterval(good, n)
		if err != nil {
			return a, fmt.Errorf("trust interval: %w", err)
		}
		a.TrustLow, a.TrustHigh = lo, hi
	}
	return a, nil
}

// Accept runs Assess and applies a client's trust threshold: the client
// proceeds with the transaction only when the server is not suspicious and
// its trust value meets the threshold.
func (tp *TwoPhase) Accept(h *feedback.History, threshold float64) (bool, Assessment, error) {
	a, err := tp.Assess(h)
	if err != nil {
		return false, a, err
	}
	return !a.Suspicious && a.Trust >= threshold, a, nil
}
