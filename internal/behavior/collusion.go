package behavior

import (
	"fmt"

	"honestplayer/internal/feedback"
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
	multi bool // test every stride-aligned suffix, not the whole history alone
}

var _ Tester = (*Collusion)(nil)

// NewCollusion returns a collusion-resilient tester running the Scheme-1
// single test on the issuer-re-ordered history.
func NewCollusion(cfg Config) (*Collusion, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Collusion{&accShared{cfg, "collusion"}, false}, nil
}

// NewCollusionMulti returns a collusion-resilient multi-tester: suffixes of
// the most recent l−k, l−2k, … transactions (in original time order, as in
// §4) are each re-ordered by issuer and tested.
func NewCollusionMulti(cfg Config) (*Collusion, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Collusion{&accShared{cfg, "collusion-multi"}, true}, nil
}

// Name implements Tester.
func (c *Collusion) Name() string { return c.name }

// Test implements Tester: the single test over the whole history
// re-ordered by issuer, the multi-test over each stride-aligned suffix
// re-ordered, every suffix's windows from History.CollusionWindows.
func (c *Collusion) Test(h *feedback.History) (Verdict, error) {
	cfg, m := c.cfg, c.cfg.WindowSize
	k := h.Len() / m
	if k < cfg.MinWindows {
		return Verdict{}, fmt.Errorf("%w: %d windows < %d", ErrInsufficientHistory, k, cfg.MinWindows)
	}
	n, suffixes, confidence := h.Len(), 1, 0.0
	if c.multi {
		n, suffixes = k*m, (k-cfg.MinWindows)/(cfg.Stride/m)+1
		confidence = cfg.suffixConfidence(suffixes)
	}
	sc, err := newScorer(cfg, confidence)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Honest: true, Suffixes: make([]SuffixResult, suffixes)}
	hist, i := make([]uint32, m+1), 0
	h.CollusionWindows(m, n, cfg.Stride, func(counts []int) bool {
		res := &v.Suffixes[i]
		if err = sc.scoreWindows(res, counts, hist); err != nil {
			return false
		}
		v.Honest = v.Honest && res.Pass
		i++
		return i < suffixes
	})
	if err != nil {
		return Verdict{}, err
	}
	return v, nil
}
