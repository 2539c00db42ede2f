package behavior

import (
	"fmt"
	"slices"

	"honestplayer/internal/feedback"
)

// This file implements the incremental assessment engine's phase-1 side: an
// Accumulator that consumes one feedback at a time in O(1) and can
// reproduce, bit for bit, what the batch testers would compute over the same
// history — without ever walking the history again.
//
// The difficulty is that the testers end-align their windows: at history
// length n the windows cover [n mod m + i·m, n mod m + (i+1)·m), so a single
// append shifts every window boundary. The accumulator exploits that there
// are only m possible alignments ("phases") and that each append completes
// exactly one window — the window [n−m, n) of phase n mod m. Maintaining all
// m phase families therefore costs O(1) per append: one histogram bump in
// one phase, plus the window's good count appended to the window string.
//
// At read time the phase selected by the current length holds exactly the
// window histogram the batch tester would have built. A multi-test starts
// from a copy of it and, walking suffixes longest-first, takes out the
// windows that leave each next suffix — they sit m apart in the window
// string — so every suffix histogram costs O(stride windows) to reach.
// Each suffix histogram then goes through scorer.score (behavior.go), the
// one suffix score the batch testers call too: accumulator and reference
// differ only in where the windows come from. B(m, p̂) is refilled into the
// call's scratch table and ε read from the calibrator's grid, both pure
// functions of their exact inputs, so the accumulator holds nothing but
// history-dependent counters.
//
// The collusion testers re-order each suffix by feedback issuer before
// windowing, which no fixed window table survives. For those the
// accumulator keeps the records themselves — a feedback.History, so client
// slots and good-bits — and recomputes through Collusion.Test: testers and
// accumulators share one collusion window source, History.CollusionWindows,
// as they share scorer.score.

// accMode selects which batch tester the accumulator reproduces.
type accMode int

const (
	accSingle accMode = iota
	accMulti
	accMultiNaive
	accCollusion
	accCollusionMulti
)

// accShared is what a tester and all accumulators minted from it have in
// common: the configuration and identity.
type accShared struct {
	cfg  Config
	mode accMode
	name string
}

// sharedOf returns the accumulator side of a built-in tester, or nil.
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

// Accumulator maintains per-server behaviour statistics incrementally:
// Append consumes one feedback in O(1), and Test reproduces the
// corresponding batch tester's Verdict — Honest flag, per-suffix p̂,
// distances, thresholds, and errors — bit-identically, at a read cost of
// O(m · #suffixes) independent of the history length; the collusion modes
// recompute over their records.
//
// Concurrency contract: Append must not run concurrently with anything, and
// Test must not run concurrently with Append; Test never writes accumulator
// state, so concurrent Tests need no serialisation. The store layer provides
// exactly this — Append runs under the shard write lock, Test under the shard
// read lock.
type Accumulator struct {
	*accShared

	n         int // records consumed
	goodTotal int // running good count ΣG

	// Single/multi modes. Phase φ = n mod m owns the windows ending at
	// φ+m, φ+2m, …; the window ending at record j is wins entry j−m, so a
	// phase's windows sit m entries apart starting at entry φ. The counters
	// are 32 bits: none exceeds the record count, and a history's rank index
	// already holds a server to fewer than 2³² records. The prefix ring
	// wraps past that, harmlessly: window counts are differences of it.
	prefRing []uint32 // good-count prefix over the last m+1 positions (ring)
	counts   []uint32 // per-phase window histograms: m rows of m+1 buckets
	sums     []uint32 // per-phase sum of window good-counts
	wins     []byte   // good count of every completed window (m <= MaxWindowSize fits a byte)

	hist *feedback.History // collusion modes: the records, of no server
}

// SupportsAccumulator reports whether NewAccumulatorFor can mirror t.
func SupportsAccumulator(t Tester) bool { return sharedOf(t) != nil }

// ConfigFor returns the effective configuration of t — its window size and
// calibrator among it — and false for a tester without an incremental form.
func ConfigFor(t Tester) (Config, bool) {
	if sh := sharedOf(t); sh != nil {
		return sh.cfg, true
	}
	return Config{}, false
}

// NewAccumulatorFor returns an accumulator that reproduces t.Test
// incrementally, or (nil, false) when t's scheme has no incremental form.
// All built-in testers are supported. What is allocated here is a function of
// the window size alone.
func NewAccumulatorFor(t Tester) (*Accumulator, bool) {
	sh := sharedOf(t)
	if sh == nil {
		return nil, false
	}
	a := &Accumulator{accShared: sh}
	if m := sh.cfg.WindowSize; sh.mode == accCollusion || sh.mode == accCollusionMulti {
		a.hist = feedback.NewHistory("")
	} else {
		a.prefRing = make([]uint32, m+1)
		a.counts = make([]uint32, m*(m+1))
		a.sums = make([]uint32, m)
	}
	return a, true
}

// Clone returns an independent copy of the accumulator: appending to either
// leaves the other's Test as it was. The configuration stays shared, as it
// is among all accumulators of one tester.
func (a *Accumulator) Clone() *Accumulator {
	c := *a
	c.prefRing = slices.Clone(a.prefRing)
	c.counts = slices.Clone(a.counts)
	c.sums = slices.Clone(a.sums)
	c.wins = slices.Clone(a.wins)
	if a.hist != nil {
		c.hist = a.hist.Clone()
	}
	return &c
}

// Name returns the name of the tester this accumulator reproduces.
func (a *Accumulator) Name() string { return a.name }

// Config returns the effective configuration.
func (a *Accumulator) Config() Config { return a.cfg }

// Len returns the number of records consumed.
func (a *Accumulator) Len() int { return a.n }

// GoodCount returns the running number of good transactions ΣG.
func (a *Accumulator) GoodCount() int { return a.goodTotal }

// phase returns the window histogram of phase φ.
func (a *Accumulator) phase(phi int) []uint32 {
	stride := a.cfg.WindowSize + 1
	return a.counts[phi*stride : (phi+1)*stride]
}

// Append consumes the next feedback record in O(1). Records must arrive in
// history (time) order; the store rebuilds the accumulator on its rare
// out-of-order insert path. See the type comment for the concurrency
// contract.
func (a *Accumulator) Append(f feedback.Feedback) {
	a.n++
	if f.Good() {
		a.goodTotal++
	}
	m := a.cfg.WindowSize
	if a.hist != nil {
		slot, err := a.hist.Intern(f.Client)
		if err != nil { // 4 GiB of client ids, which the records' own history refused first
			panic(err)
		}
		a.hist.AppendSlot(f.Time.UnixNano(), slot, f.Good())
		return
	}
	a.prefRing[a.n%(m+1)] = uint32(a.goodTotal)
	if a.n < m {
		return
	}
	// The append completed the window [n−m, n) of phase n mod m; its good
	// count is a ring-prefix difference.
	c := uint32(a.goodTotal) - a.prefRing[(a.n-m)%(m+1)]
	a.phase(a.n % m)[c]++
	a.sums[a.n%m] += c
	a.wins = append(a.wins, byte(c))
}

// Test evaluates the maintained statistics exactly as the corresponding
// batch tester would evaluate the full history, including its
// ErrInsufficientHistory behaviour. It is read-only with respect to the
// accumulator and safe for concurrent use with itself.
func (a *Accumulator) Test() (Verdict, error) {
	switch a.mode {
	case accSingle:
		return a.testSingle()
	case accMulti:
		return a.testMulti(true)
	case accMultiNaive:
		// MultiNaive is the paper-exact reference: identical suffixes, never
		// familywise-corrected.
		return a.testMulti(false)
	default:
		return a.testCollusion(a.hist)
	}
}

// testSingle mirrors Single.Test: one test over all end-aligned windows.
func (a *Accumulator) testSingle() (Verdict, error) {
	m := a.cfg.WindowSize
	k := a.n / m
	if k < a.cfg.MinWindows {
		return Verdict{}, fmt.Errorf("%w: %d windows < %d", ErrInsufficientHistory, k, a.cfg.MinWindows)
	}
	sc, err := newScorer(a.cfg, 0)
	if err != nil {
		return Verdict{}, err
	}
	var res SuffixResult
	if err := sc.score(&res, a.phase(a.n%m), k, int64(a.sums[a.n%m])); err != nil {
		return Verdict{}, err
	}
	return Verdict{Honest: res.Pass, Suffixes: []SuffixResult{res}}, nil
}

// testMulti mirrors Multi.Test (corrected=true) and MultiNaive.Test
// (corrected=false): suffix i covers the most recent k − i·ws windows of the
// current phase.
func (a *Accumulator) testMulti(corrected bool) (Verdict, error) {
	m := a.cfg.WindowSize
	k := a.n / m
	if k < a.cfg.MinWindows {
		return Verdict{}, fmt.Errorf("%w: %d windows < %d", ErrInsufficientHistory, k, a.cfg.MinWindows)
	}
	ws := a.cfg.Stride / m
	numSuffixes := (k-a.cfg.MinWindows)/ws + 1
	confidence := 0.0
	if corrected {
		confidence = a.cfg.suffixConfidence(numSuffixes)
	}
	sc, err := newScorer(a.cfg, confidence)
	if err != nil {
		return Verdict{}, err
	}
	phi := a.n % m
	hist := slices.Clone(a.phase(phi))
	sum := int64(a.sums[phi])
	oldest := phi // window-string entry of the oldest window still in hist
	v := Verdict{Honest: true, Suffixes: make([]SuffixResult, numSuffixes)}
	for i := range v.Suffixes {
		res := &v.Suffixes[i]
		if err := sc.score(res, hist, k-i*ws, sum); err != nil {
			return Verdict{}, err
		}
		if !res.Pass {
			v.Honest = false
		}
		if i+1 == numSuffixes {
			break
		}
		for end := oldest + ws*m; oldest < end; oldest += m {
			c := a.wins[oldest]
			hist[c]--
			sum -= int64(c)
		}
	}
	return v, nil
}
