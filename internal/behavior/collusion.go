package behavior

import (
	"fmt"

	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// Collusion implements the collusion-resilient behaviour testing of §4: the
// feedback sequence is re-ordered by issuer — groups with more feedbacks
// first, time order within a group — and the distribution test is run on the
// re-ordered sequence.
//
// For an honest player the feedback distribution of frequent clients
// resembles that of occasional clients, so the re-ordering is harmless. An
// attacker propped up by a small set of colluders ends up with long runs of
// all-positive windows (the colluders' groups) followed by the windows
// holding the cheated clients' feedback, which deviates from B(m, p̂).
type Collusion struct {
	*accShared
	inner Tester
}

var _ Tester = (*Collusion)(nil)

// NewCollusion returns a collusion-resilient tester running the Scheme-1
// single test on the issuer-re-ordered history.
func NewCollusion(cfg Config) (*Collusion, error) {
	single, err := NewSingle(cfg)
	if err != nil {
		return nil, err
	}
	return &Collusion{newAccShared(single.cfg, accCollusion, "collusion"), single}, nil
}

// NewCollusionMulti returns a collusion-resilient multi-tester: suffixes of
// the most recent l−k, l−2k, … transactions (in original time order, as in
// §4) are each re-ordered by issuer and tested.
func NewCollusionMulti(cfg Config) (*Collusion, error) {
	single, err := NewSingle(cfg)
	if err != nil {
		return nil, err
	}
	return &Collusion{newAccShared(single.cfg, accCollusionMulti, "collusion-multi"), single}, nil
}

// Name implements Tester.
func (c *Collusion) Name() string { return c.name }

// Test implements Tester.
func (c *Collusion) Test(h *feedback.History) (Verdict, error) {
	if c.mode == accCollusion {
		return c.inner.Test(h.CollusionOrder())
	}
	cfg := c.cfg
	usable := (h.Len() / cfg.WindowSize) * cfg.WindowSize
	usableWindows := usable / cfg.WindowSize
	if usableWindows < cfg.MinWindows {
		return Verdict{}, fmt.Errorf("%w: %d windows < %d",
			ErrInsufficientHistory, usableWindows, cfg.MinWindows)
	}
	strideWindows := cfg.Stride / cfg.WindowSize
	numSuffixes := (usableWindows-cfg.MinWindows)/strideWindows + 1
	confidence := cfg.suffixConfidence(numSuffixes)
	v := Verdict{Honest: true}
	for n := usable; n/cfg.WindowSize >= cfg.MinWindows; n -= cfg.Stride {
		reordered := h.SuffixView(n).CollusionOrder()
		counts, err := reordered.WindowCountsFromEnd(cfg.WindowSize)
		if err != nil {
			return Verdict{}, err
		}
		hist := stats.MustHistogram(cfg.WindowSize)
		if err := hist.AddAll(counts); err != nil {
			return Verdict{}, err
		}
		res, err := testHistogram(cfg, hist, confidence)
		if err != nil {
			return Verdict{}, err
		}
		v.Suffixes = append(v.Suffixes, res)
		if !res.Pass {
			v.Honest = false
		}
	}
	return v, nil
}
