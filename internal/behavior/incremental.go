package behavior

import (
	"fmt"
	"slices"
	"sort"

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
// windowing, which no fixed window table survives. For those the accumulator
// maintains a per-client index (global record positions plus a good-count
// prefix, O(1) per append) and computes each re-ordered window count
// directly from group overlap arithmetic — O(clients·log n + windows) per
// suffix instead of materialising and re-scanning the re-ordered history.

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

// clientSeries is one feedback issuer's records: global history positions in
// time order plus a good-count prefix, which is all the collusion re-ordering
// needs — a re-ordered window's good count is a sum of per-group ranges.
type clientSeries struct {
	idx  []int // global record indices, ascending
	good []int // good[i] = good records among idx[:i]; len(good) == len(idx)+1
}

// Accumulator maintains per-server behaviour statistics incrementally:
// Append consumes one feedback in O(1), and Test reproduces the
// corresponding batch tester's Verdict — Honest flag, per-suffix p̂,
// distances, thresholds, and errors — bit-identically, at a read cost of
// O(m · #suffixes) independent of the history length.
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

	clients map[feedback.EntityID]*clientSeries // collusion modes
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
		a.clients = make(map[feedback.EntityID]*clientSeries)
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
	if a.clients != nil {
		c.clients = make(map[feedback.EntityID]*clientSeries, len(a.clients))
		for id, cs := range a.clients {
			c.clients[id] = &clientSeries{idx: slices.Clone(cs.idx), good: slices.Clone(cs.good)}
		}
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
	if a.clients != nil {
		cs := a.clients[f.Client]
		if cs == nil {
			cs = &clientSeries{good: []int{0}}
			a.clients[f.Client] = cs
		}
		cs.idx = append(cs.idx, a.n-1)
		g := cs.good[len(cs.good)-1]
		if f.Good() {
			g++
		}
		cs.good = append(cs.good, g)
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
	case accCollusion:
		return a.testCollusion()
	default:
		return a.testCollusionMulti()
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

// testCollusion mirrors Collusion.Test (single variant): the whole history
// re-ordered by issuer, end-aligned windows, one test.
func (a *Accumulator) testCollusion() (Verdict, error) {
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
	if err := sc.scoreWindows(&res, a.collusionCounts(0, make([]int, 0, k)), make([]uint32, m+1)); err != nil {
		return Verdict{}, err
	}
	return Verdict{Honest: res.Pass, Suffixes: []SuffixResult{res}}, nil
}

// testCollusionMulti mirrors Collusion.Test (multi variant): every
// stride-aligned time suffix, each re-ordered by issuer and tested.
func (a *Accumulator) testCollusionMulti() (Verdict, error) {
	cfg := a.cfg
	m := cfg.WindowSize
	usable := (a.n / m) * m
	usableWindows := usable / m
	if usableWindows < cfg.MinWindows {
		return Verdict{}, fmt.Errorf("%w: %d windows < %d",
			ErrInsufficientHistory, usableWindows, cfg.MinWindows)
	}
	strideWindows := cfg.Stride / m
	numSuffixes := (usableWindows-cfg.MinWindows)/strideWindows + 1
	sc, err := newScorer(cfg, cfg.suffixConfidence(numSuffixes))
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Honest: true}
	buf, hist := make([]int, 0, usableWindows), make([]uint32, m+1)
	for np := usable; np/m >= cfg.MinWindows; np -= cfg.Stride {
		var res SuffixResult
		if err := sc.scoreWindows(&res, a.collusionCounts(a.n-np, buf[:0]), hist); err != nil {
			return Verdict{}, err
		}
		v.Suffixes = append(v.Suffixes, res)
		if !res.Pass {
			v.Honest = false
		}
	}
	return v, nil
}

// collusionCounts computes the end-aligned window good-counts of the
// issuer-re-ordered suffix starting at global record index s, appending them
// to counts. It never materialises the re-ordered sequence: groups are
// enumerated in CollusionOrder order (larger groups first, client ID ties),
// and each window's good count is assembled from per-group prefix ranges.
func (a *Accumulator) collusionCounts(s int, counts []int) []int {
	m := a.cfg.WindowSize
	length := a.n - s
	type group struct {
		cs  *clientSeries
		id  feedback.EntityID
		pos int // first index in cs.idx belonging to the suffix
		cnt int // records of this client inside the suffix
	}
	groups := make([]group, 0, len(a.clients))
	for id, cs := range a.clients {
		pos := sort.SearchInts(cs.idx, s)
		if cnt := len(cs.idx) - pos; cnt > 0 {
			groups = append(groups, group{cs: cs, id: id, pos: pos, cnt: cnt})
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].cnt != groups[j].cnt {
			return groups[i].cnt > groups[j].cnt
		}
		return groups[i].id < groups[j].id
	})
	// End-aligned windows over the re-ordered sequence: the first
	// length mod m re-ordered positions fall outside every window.
	off := length % m
	cursor := 0
	winGood, winFill := 0, 0
	for _, g := range groups {
		apos, rem := g.pos, g.cnt
		if cursor < off {
			skip := off - cursor
			if skip > rem {
				skip = rem
			}
			cursor += skip
			apos += skip
			rem -= skip
		}
		for rem > 0 {
			take := m - winFill
			if take > rem {
				take = rem
			}
			winGood += g.cs.good[apos+take] - g.cs.good[apos]
			winFill += take
			cursor += take
			apos += take
			rem -= take
			if winFill == m {
				counts = append(counts, winGood)
				winGood, winFill = 0, 0
			}
		}
	}
	return counts
}
