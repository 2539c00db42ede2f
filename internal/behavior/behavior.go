// Package behavior implements phase 1 of the paper's two-phase trust
// assessment: testing whether a server's transaction history is consistent
// with the statistical model of honest players.
//
// An honest player with trustworthiness p produces i.i.d. Bernoulli(p)
// transaction outcomes, so the number of good transactions per window of m
// transactions follows B(m, p). The testers here estimate p̂ from the
// history, measure the L¹ distance between the empirical per-window
// good-count distribution and B(m, p̂), and compare it against a threshold ε
// calibrated so that honest players pass with the configured confidence
// (95 % by default).
//
// Three testers are provided, matching the paper's §3.2, §3.3 and §4:
//
//   - Single: one test over the whole history (Scheme 1).
//   - Multi: tests over the whole history and every suffix of the most
//     recent l−k, l−2k, … transactions (Scheme 2), in the optimised O(n)
//     formulation; MultiNaive is the O(n²) reference implementation.
//   - Collusion: the same tests applied to the history re-ordered by
//     feedback issuer, which forces colluders' feedback blocks next to each
//     other and exposes reputations propped up by fake feedback.
package behavior

import (
	"errors"
	"fmt"

	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// Defaults used when a Config field is zero. The paper's experiments use
// transaction windows of size 10; four windows is the smallest sample the
// distribution test is applied to before a suffix is deemed statistically
// insignificant.
const (
	DefaultWindowSize = 10
	DefaultMinWindows = 4
)

// MaxWindowSize is the largest window a tester accepts. Up to it B(m, p̂)
// stays within 1e-12 of the exact PMF in L¹; beyond it q^m can underflow
// where the distribution still has mass (stats.BinomialPMFInto). It is also
// the widest window a verdict chain carries on the wire.
const MaxWindowSize = 255

// Errors returned by testers.
var (
	// ErrInsufficientHistory reports a history too short to test: fewer
	// than Config.MinWindows full windows. The paper treats servers with
	// short histories as a high-risk group needing other mechanisms (§7).
	ErrInsufficientHistory = errors.New("behavior: history too short to test")
	// ErrBadConfig reports an invalid configuration.
	ErrBadConfig = errors.New("behavior: invalid config")
)

// Config parameterises the behaviour testers.
type Config struct {
	// WindowSize is m, the number of transactions per window. Zero means
	// DefaultWindowSize.
	WindowSize int
	// MinWindows is the smallest number of windows a (suffix of a) history
	// must span to be testable. Zero means DefaultMinWindows.
	MinWindows int
	// Stride is the multi-testing step k in transactions: suffixes of
	// l, l−k, l−2k, … transactions are tested. It must be a positive
	// multiple of WindowSize so suffix windows align with full-history
	// windows. Zero means WindowSize.
	Stride int
	// Calibrator supplies the distance threshold ε. Nil means a private
	// calibrator with default settings.
	Calibrator *stats.Calibrator
	// FamilywiseCorrection applies a Bonferroni correction across the
	// suffixes of a multi-test: with k suffixes each individual test runs at
	// confidence 1 − (1−c)/k so the whole multi-test keeps an honest-player
	// pass rate of ≈ c. The paper calibrates each test at 95 % individually,
	// which compounds to a high false-positive rate on long histories —
	// dozens of suffixes, each with a 5 % miss chance. The correction is off
	// by default for fidelity to the paper; deployments that assess honest
	// servers continuously should enable it. It only affects the Multi and
	// CollusionMulti testers (MultiNaive stays uncorrected — it is the
	// paper-exact reference implementation).
	FamilywiseCorrection bool
}

func (c Config) withDefaults() (Config, error) {
	if c.WindowSize == 0 {
		c.WindowSize = DefaultWindowSize
	}
	if c.MinWindows == 0 {
		c.MinWindows = DefaultMinWindows
	}
	if c.Stride == 0 {
		c.Stride = c.WindowSize
	}
	if c.Calibrator == nil {
		c.Calibrator = stats.NewCalibrator(stats.CalibrationConfig{}, 0)
	}
	if c.WindowSize < 1 || c.WindowSize > MaxWindowSize {
		return c, fmt.Errorf("%w: window size %d outside [1, %d]", ErrBadConfig, c.WindowSize, MaxWindowSize)
	}
	if c.MinWindows < 1 {
		return c, fmt.Errorf("%w: min windows %d", ErrBadConfig, c.MinWindows)
	}
	if c.Stride < 1 || c.Stride%c.WindowSize != 0 {
		return c, fmt.Errorf("%w: stride %d not a positive multiple of window size %d",
			ErrBadConfig, c.Stride, c.WindowSize)
	}
	return c, nil
}

// SuffixResult records the outcome of the distribution test over one suffix
// of the history.
type SuffixResult struct {
	// Transactions is the suffix length in transactions considered.
	Transactions int `json:"transactions"`
	// Windows is the number of full windows the test spanned.
	Windows int `json:"windows"`
	// PHat is the estimated trustworthiness over the suffix.
	PHat float64 `json:"pHat"`
	// Distance is the L¹ distance between the empirical window distribution
	// and B(m, PHat).
	Distance float64 `json:"distance"`
	// Threshold is the calibrated ε the distance was compared against.
	Threshold float64 `json:"threshold"`
	// Pass reports Distance <= Threshold.
	Pass bool `json:"pass"`
}

// Verdict is the outcome of a behaviour test.
type Verdict struct {
	// Honest reports whether every tested suffix was consistent with the
	// honest-player model.
	Honest bool `json:"honest"`
	// Suffixes holds the per-suffix results, longest suffix first. A single
	// test has exactly one entry.
	Suffixes []SuffixResult `json:"suffixes"`
}

// Worst returns the suffix result with the largest Distance−Threshold
// margin (the most suspicious suffix), or a zero result if none were tested.
func (v Verdict) Worst() SuffixResult {
	var worst SuffixResult
	first := true
	for _, s := range v.Suffixes {
		if first || s.Distance-s.Threshold > worst.Distance-worst.Threshold {
			worst = s
			first = false
		}
	}
	return worst
}

// Tester decides whether a transaction history is consistent with the
// honest-player model.
type Tester interface {
	// Name identifies the tester in reports and experiment output.
	Name() string
	// Test evaluates the history. It returns ErrInsufficientHistory when
	// the history spans fewer than the configured minimum of windows.
	Test(h *feedback.History) (Verdict, error)
}

// accShared is what every built-in tester carries: its effective
// configuration and its name. ConfigFor reads it.
type accShared struct {
	cfg  Config
	name string
}

// sharedOf returns the shared config of a built-in tester, or nil.
func sharedOf(t Tester) *accShared {
	switch tt := t.(type) {
	case *Single:
		return tt.accShared
	case *Multi:
		return tt.accShared
	case *MultiNaive:
		return tt.accShared
	case *Collusion:
		return tt.accShared
	}
	return nil
}

// ConfigFor returns the effective configuration of t — its window size and
// calibrator among it — and false for a tester this package did not build.
func ConfigFor(t Tester) (Config, bool) {
	if sh := sharedOf(t); sh != nil {
		return sh.cfg, true
	}
	return Config{}, false
}

// scorer is what one Test call's suffix scores share: the window size, the
// calibrator's threshold plane at the call's per-suffix confidence, and one
// m+1 scratch table that each suffix refills with B(m, p̂). Every tester
// scores through it, so they differ only in where their windows come from.
type scorer struct {
	m       int
	plane   stats.Plane
	scratch []float64
}

// newScorer resolves cfg's threshold plane at confidence — zero selects the
// calibrator's configured level — and allocates the call's PMF scratch.
func newScorer(cfg Config, confidence float64) (scorer, error) {
	if confidence == 0 {
		confidence = cfg.Calibrator.Config().Confidence
	}
	plane, err := cfg.Calibrator.Plane(cfg.WindowSize, confidence)
	if err != nil {
		return scorer{}, err
	}
	return scorer{m: cfg.WindowSize, plane: plane, scratch: make([]float64, cfg.WindowSize+1)}, nil
}

// score is the distribution test of one suffix, the one place phase 1
// computes it: hist is the suffix's window histogram (m+1 buckets), k its
// window count and sum its good-count total. It estimates p̂, measures the
// L¹ distance of hist from B(m, p̂), and compares it with the plane's ε. The
// result is written in place so multi-tests fill their suffix slice without
// copying.
func (sc *scorer) score(res *SuffixResult, hist []uint32, k int, sum int64) error {
	res.Transactions = k * sc.m
	res.Windows = k
	res.PHat = float64(sum) / float64(sc.m*k)
	err := stats.BinomialPMFInto(sc.scratch, sc.m, res.PHat)
	if err != nil {
		return err
	}
	if res.Distance, err = stats.L1CountsDistance(hist, int64(k), sc.scratch); err != nil {
		return err
	}
	if res.Threshold, err = sc.plane.Threshold(k, res.PHat); err != nil {
		return err
	}
	res.Pass = res.Distance <= res.Threshold
	return nil
}

// scoreWindows scores the suffix whose window good-counts are counts,
// tallying them into hist, the caller's m+1 bucket scratch.
func (sc *scorer) scoreWindows(res *SuffixResult, counts []int, hist []uint32) error {
	clear(hist)
	var sum int64
	for _, c := range counts {
		hist[c]++
		sum += int64(c)
	}
	return sc.score(res, hist, len(counts), sum)
}

// suffixConfidence returns the per-suffix confidence for a multi-test over
// numSuffixes suffixes: the Bonferroni-corrected level when the correction
// is enabled, otherwise 0 (calibrator default).
func (c Config) suffixConfidence(numSuffixes int) float64 {
	if !c.FamilywiseCorrection || numSuffixes <= 1 {
		return 0
	}
	base := c.Calibrator.Config().Confidence
	return 1 - (1-base)/float64(numSuffixes)
}

// Single implements Scheme 1: one distribution test over the whole history
// (Fig. 2 of the paper).
type Single struct {
	*accShared
}

var _ Tester = (*Single)(nil)

// NewSingle returns a Scheme-1 tester.
func NewSingle(cfg Config) (*Single, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Single{&accShared{cfg, "single"}}, nil
}

// Name implements Tester.
func (s *Single) Name() string { return s.name }

// Config returns the effective configuration.
func (s *Single) Config() Config { return s.cfg }

// Test implements Tester.
//
// Windows are aligned to the newest record (any partial window of the
// oldest records is dropped). The paper breaks the history sequentially
// from the front; end-alignment is a deliberate, defender-favouring
// refinement — it guarantees the most recent transactions are always
// inside a tested window — and is what makes the optimised multi-testing
// suffixes share window boundaries with the full history.
func (s *Single) Test(h *feedback.History) (Verdict, error) {
	cfg := s.cfg
	counts, err := h.WindowCountsFromEnd(cfg.WindowSize)
	if err != nil {
		return Verdict{}, err
	}
	if len(counts) < cfg.MinWindows {
		return Verdict{}, fmt.Errorf("%w: %d windows < %d", ErrInsufficientHistory, len(counts), cfg.MinWindows)
	}
	sc, err := newScorer(cfg, 0)
	if err != nil {
		return Verdict{}, err
	}
	var res SuffixResult
	if err := sc.scoreWindows(&res, counts, make([]uint32, cfg.WindowSize+1)); err != nil {
		return Verdict{}, err
	}
	return Verdict{Honest: res.Pass, Suffixes: []SuffixResult{res}}, nil
}

// Multi implements Scheme 2 with the incremental-statistics optimisation of
// §5.5: the history and every suffix of the most recent l−k, l−2k, …
// transactions are tested, and a server is honest only if every suffix
// passes. Window counts are computed once; each suffix reuses the suffix of
// that table, so the whole run costs O(n) for constant window size.
type Multi struct {
	*accShared
}

var _ Tester = (*Multi)(nil)

// NewMulti returns an optimised Scheme-2 tester.
func NewMulti(cfg Config) (*Multi, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Multi{&accShared{cfg, "multi"}}, nil
}

// Name implements Tester.
func (m *Multi) Name() string { return m.name }

// Config returns the effective configuration.
func (m *Multi) Config() Config { return m.cfg }

// Test implements Tester.
func (m *Multi) Test(h *feedback.History) (Verdict, error) {
	cfg := m.cfg
	counts, err := h.WindowCountsFromEnd(cfg.WindowSize)
	if err != nil {
		return Verdict{}, err
	}
	total := len(counts)
	if total < cfg.MinWindows {
		return Verdict{}, fmt.Errorf("%w: %d windows < %d", ErrInsufficientHistory, total, cfg.MinWindows)
	}
	// Suffix i spans the most recent total − i·windowsPerStride windows.
	windowsPerStride := cfg.Stride / cfg.WindowSize
	numSuffixes := (total-cfg.MinWindows)/windowsPerStride + 1
	sc, err := newScorer(cfg, cfg.suffixConfidence(numSuffixes))
	if err != nil {
		return Verdict{}, err
	}
	// Shortest suffix first, growing toward the full history: the histogram
	// gains the windows each longer suffix adds, so each suffix test is O(m)
	// past its stride.
	hist := make([]uint32, cfg.WindowSize+1)
	var sum int64
	next := total // index one past the last window not yet in hist
	v := Verdict{Honest: true, Suffixes: make([]SuffixResult, numSuffixes)}
	for i := numSuffixes - 1; i >= 0; i-- {
		for next > i*windowsPerStride {
			next--
			hist[counts[next]]++
			sum += int64(counts[next])
		}
		res := &v.Suffixes[i]
		if err := sc.score(res, hist, total-i*windowsPerStride, sum); err != nil {
			return Verdict{}, err
		}
		if !res.Pass {
			v.Honest = false
		}
	}
	return v, nil
}

// MultiNaive is the unoptimised O(n²) formulation of Scheme 2 from §3.3: it
// re-runs the single test from scratch on every suffix. It exists as the
// reference implementation for equivalence testing and as the ablation
// baseline of the Fig. 9 performance experiment.
type MultiNaive struct {
	*accShared
}

var _ Tester = (*MultiNaive)(nil)

// NewMultiNaive returns the reference Scheme-2 tester.
func NewMultiNaive(cfg Config) (*MultiNaive, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &MultiNaive{&accShared{cfg, "multi-naive"}}, nil
}

// Name implements Tester.
func (mn *MultiNaive) Name() string { return mn.name }

// Test implements Tester: every stride-aligned suffix of h — the most recent
// usable, usable−k, … transactions — is windowed from its own end and tested
// from scratch. MultiNaive is the paper-exact reference: its suffixes are
// never familywise-corrected.
func (mn *MultiNaive) Test(h *feedback.History) (Verdict, error) {
	cfg, m := mn.cfg, mn.cfg.WindowSize
	usableWindows := h.Len() / m
	if usableWindows < cfg.MinWindows {
		return Verdict{}, fmt.Errorf("%w: %d windows < %d", ErrInsufficientHistory, usableWindows, cfg.MinWindows)
	}
	sc, err := newScorer(cfg, 0)
	if err != nil {
		return Verdict{}, err
	}
	hist := make([]uint32, m+1)
	v := Verdict{Honest: true}
	for n := usableWindows * m; n/m >= cfg.MinWindows; n -= cfg.Stride {
		counts, err := h.SuffixView(n).WindowCountsFromEnd(m)
		if err != nil {
			return Verdict{}, err
		}
		var res SuffixResult
		if err := sc.scoreWindows(&res, counts, hist); err != nil {
			return Verdict{}, err
		}
		v.Suffixes = append(v.Suffixes, res)
		if !res.Pass {
			v.Honest = false
		}
	}
	return v, nil
}
