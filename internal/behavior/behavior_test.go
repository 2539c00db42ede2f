package behavior

import (
	"errors"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// testConfig returns a Config with a fast shared calibrator.
func testConfig() Config {
	return Config{
		Calibrator: stats.NewCalibrator(stats.CalibrationConfig{Seed: 1, Replicates: 300}, 0),
	}
}

// honestHistory builds a history of n transactions from an honest player
// with trustworthiness p.
func honestHistory(t *testing.T, rng *stats.RNG, n int, p float64) *feedback.History {
	t.Helper()
	h := feedback.NewHistory("s")
	for i := 0; i < n; i++ {
		if err := h.AppendOutcome("c", rng.Bernoulli(p), time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// periodicHistory builds a history where every block of blockLen
// transactions ends with exactly badPerBlock consecutive bad transactions.
func periodicHistory(t *testing.T, n, blockLen, badPerBlock int) *feedback.History {
	t.Helper()
	h := feedback.NewHistory("s")
	for i := 0; i < n; i++ {
		good := i%blockLen < blockLen-badPerBlock
		if err := h.AppendOutcome("c", good, time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.WindowSize != DefaultWindowSize || cfg.MinWindows != DefaultMinWindows {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.Stride != cfg.WindowSize {
		t.Fatalf("default stride = %d", cfg.Stride)
	}
	if cfg.Calibrator == nil {
		t.Fatal("default calibrator nil")
	}
}

func TestConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"negative window", Config{WindowSize: -1}},
		{"window above the most", Config{WindowSize: MaxWindowSize + 1}},
		{"negative minwindows", Config{MinWindows: -2}},
		{"stride not multiple", Config{WindowSize: 10, Stride: 15}},
		{"negative stride", Config{WindowSize: 10, Stride: -10}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSingle(tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("NewSingle(%+v) = %v", tt.cfg, err)
			}
			if _, err := NewMulti(tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Errorf("NewMulti(%+v) = %v", tt.cfg, err)
			}
		})
	}
}

func TestSingleInsufficientHistory(t *testing.T) {
	s, err := NewSingle(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := honestHistory(t, stats.NewRNG(1), 30, 0.9) // 3 windows < MinWindows 4
	if _, err := s.Test(h); !errors.Is(err, ErrInsufficientHistory) {
		t.Fatalf("Test on 30 txns = %v", err)
	}
}

func TestSingleHonestPasses(t *testing.T) {
	s, err := NewSingle(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(42)
	pass := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		h := honestHistory(t, rng, 500, 0.9)
		v, err := s.Test(h)
		if err != nil {
			t.Fatal(err)
		}
		if v.Honest {
			pass++
		}
	}
	// Calibrated at 95% confidence: expect ~95 passes, allow slack.
	if pass < 85 {
		t.Fatalf("honest players passed only %d/%d single tests", pass, trials)
	}
}

func TestSingleDetectsPeriodicAttacker(t *testing.T) {
	s, err := NewSingle(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every window of 10 has exactly one bad transaction: a point mass at
	// 9 good, far from B(10, 0.9).
	h := periodicHistory(t, 500, 10, 1)
	v, err := s.Test(h)
	if err != nil {
		t.Fatal(err)
	}
	if v.Honest {
		t.Fatalf("deterministic periodic attacker passed: %+v", v.Worst())
	}
}

// TestSingleFlagsDriftingHonest and TestSingleFlagsMixedQualityHonest pin
// the limitation ADR 0020 accepts: an honest server whose quality is not
// one B(m, p) is a mixture the whole-history test flags more often than not.
func TestSingleFlagsDriftingHonest(t *testing.T) {
	// Quality drifts 0.98 -> 0.50 over 1200 transactions.
	assertSingleFlagsMostHonest(t, 83, func(i int) float64 { return 0.98 - 0.48*float64(i)/1199 })
}

func TestSingleFlagsMixedQualityHonest(t *testing.T) {
	// 0.95 for one region, 0.6 for the other, in waves of 20.
	assertSingleFlagsMostHonest(t, 71, func(i int) float64 { return []float64{0.95, 0.6}[(i/20)%2] })
}

// assertSingleFlagsMostHonest draws 25 seeded honest histories of 1200
// transactions, transaction i good with probability p(i), and requires the
// single test to flag at least half of them.
func assertSingleFlagsMostHonest(t *testing.T, seed uint64, p func(i int) float64) {
	t.Helper()
	s, err := NewSingle(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	flagged := 0
	const trials = 25
	for trial := 0; trial < trials; trial++ {
		h := feedback.NewHistory("s")
		for i := 0; i < 1200; i++ {
			if err := h.AppendOutcome("c", rng.Bernoulli(p(i)), time.Unix(int64(i), 0)); err != nil {
				t.Fatal(err)
			}
		}
		v, err := s.Test(h)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Honest {
			flagged++
		}
	}
	if flagged < trials/2 {
		t.Errorf("flagged only %d/%d non-stationary honest players", flagged, trials)
	}
}

func TestSingleVerdictFields(t *testing.T) {
	s, err := NewSingle(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := honestHistory(t, stats.NewRNG(7), 205, 0.9)
	v, err := s.Test(h)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Suffixes) != 1 {
		t.Fatalf("single test suffixes = %d", len(v.Suffixes))
	}
	r := v.Suffixes[0]
	if r.Windows != 20 || r.Transactions != 200 {
		t.Fatalf("windows=%d transactions=%d", r.Windows, r.Transactions)
	}
	if r.PHat <= 0.5 || r.PHat > 1 {
		t.Fatalf("pHat = %v", r.PHat)
	}
	if r.Threshold <= 0 {
		t.Fatalf("threshold = %v", r.Threshold)
	}
	if v.Honest != r.Pass {
		t.Fatal("verdict disagrees with its only suffix")
	}
}

func TestSingleAllGoodHistory(t *testing.T) {
	// pHat = 1: degenerate binomial, distance 0, must pass.
	s, err := NewSingle(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := feedback.NewHistory("s")
	for i := 0; i < 100; i++ {
		if err := h.AppendOutcome("c", true, time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	v, err := s.Test(h)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Honest {
		t.Fatalf("all-good history flagged: %+v", v.Worst())
	}
}

func TestMultiMatchesNaive(t *testing.T) {
	cfg := testConfig()
	opt, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewMultiNaive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(17)
	for trial := 0; trial < 25; trial++ {
		n := 40 + rng.Intn(400)
		p := 0.5 + rng.Float64()/2
		h := honestHistory(t, rng, n, p)
		// Mix in attack bursts half the time so both outcomes occur.
		if trial%2 == 0 {
			for i := 0; i < 15; i++ {
				_ = h.AppendOutcome("c", false, time.Unix(int64(n+i), 0))
			}
		}
		vo, err := opt.Test(h)
		if err != nil {
			t.Fatal(err)
		}
		vn, err := naive.Test(h)
		if err != nil {
			t.Fatal(err)
		}
		if vo.Honest != vn.Honest {
			t.Fatalf("trial %d: optimised=%v naive=%v", trial, vo.Honest, vn.Honest)
		}
		if len(vo.Suffixes) != len(vn.Suffixes) {
			t.Fatalf("trial %d: suffix counts %d vs %d", trial, len(vo.Suffixes), len(vn.Suffixes))
		}
		for i := range vo.Suffixes {
			a, b := vo.Suffixes[i], vn.Suffixes[i]
			if a.Windows != b.Windows || a.PHat != b.PHat ||
				a.Distance != b.Distance || a.Threshold != b.Threshold || a.Pass != b.Pass {
				t.Fatalf("trial %d suffix %d: %+v vs %+v", trial, i, a, b)
			}
		}
	}
}

func TestMultiDetectsHibernatingAttack(t *testing.T) {
	// Long clean prep followed by a burst of bad transactions: the short
	// suffixes see a high bad fraction even though the full history looks
	// fine.
	cfg := testConfig()
	multi, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single, err := NewSingle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(23)
	h := honestHistory(t, rng, 2000, 0.95)
	for i := 0; i < 12; i++ {
		_ = h.AppendOutcome("c", false, time.Unix(int64(2000+i), 0))
	}
	vm, err := multi.Test(h)
	if err != nil {
		t.Fatal(err)
	}
	if vm.Honest {
		t.Fatal("multi-testing missed the hibernating burst")
	}
	// Context: the single test over the whole 2012-transaction history is
	// much less sensitive to the burst; it may or may not fail, but the
	// multi tester must fail via a short suffix. Check the failing suffix
	// is indeed short.
	worst := vm.Worst()
	if worst.Pass {
		t.Fatal("worst suffix passed despite dishonest verdict")
	}
	if worst.Transactions > 500 {
		t.Errorf("failure detected only at suffix length %d; expected a short suffix", worst.Transactions)
	}
	_ = single // single-test behaviour is covered separately
}

func TestMultiHonestPasses(t *testing.T) {
	multi, err := NewMulti(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(29)
	pass := 0
	const trials = 40
	for i := 0; i < trials; i++ {
		h := honestHistory(t, rng, 400, 0.9)
		v, err := multi.Test(h)
		if err != nil {
			t.Fatal(err)
		}
		if v.Honest {
			pass++
		}
	}
	// Multi-testing applies many tests, so the per-server false-positive
	// rate is above 5%; with ~37 suffixes a majority must still pass.
	if pass < trials/2 {
		t.Fatalf("honest players passed only %d/%d multi tests", pass, trials)
	}
}

func TestMultiSuffixOrdering(t *testing.T) {
	multi, err := NewMulti(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := honestHistory(t, stats.NewRNG(31), 100, 0.9)
	v, err := multi.Test(h)
	if err != nil {
		t.Fatal(err)
	}
	// 10 windows, MinWindows 4, stride 1 window: suffixes 10,9,...,4 = 7.
	if len(v.Suffixes) != 7 {
		t.Fatalf("suffixes = %d, want 7", len(v.Suffixes))
	}
	for i := 1; i < len(v.Suffixes); i++ {
		if v.Suffixes[i-1].Windows <= v.Suffixes[i].Windows {
			t.Fatalf("suffixes not longest-first: %v then %v",
				v.Suffixes[i-1].Windows, v.Suffixes[i].Windows)
		}
	}
}

func TestMultiInsufficientHistory(t *testing.T) {
	multi, err := NewMulti(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewMultiNaive(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := honestHistory(t, stats.NewRNG(1), 35, 0.9)
	if _, err := multi.Test(h); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("multi = %v", err)
	}
	if _, err := naive.Test(h); !errors.Is(err, ErrInsufficientHistory) {
		t.Errorf("naive = %v", err)
	}
}

func TestVerdictWorst(t *testing.T) {
	v := Verdict{Suffixes: []SuffixResult{
		{Windows: 10, Distance: 0.3, Threshold: 0.4},
		{Windows: 5, Distance: 0.9, Threshold: 0.4},
		{Windows: 4, Distance: 0.5, Threshold: 0.4},
	}}
	if got := v.Worst(); got.Windows != 5 {
		t.Fatalf("Worst = %+v", got)
	}
	if got := (Verdict{}).Worst(); got.Windows != 0 {
		t.Fatalf("Worst of empty = %+v", got)
	}
}

func TestTesterNames(t *testing.T) {
	cfg := testConfig()
	s, _ := NewSingle(cfg)
	m, _ := NewMulti(cfg)
	n, _ := NewMultiNaive(cfg)
	c, _ := NewCollusion(cfg)
	cm, _ := NewCollusionMulti(cfg)
	for _, tc := range []struct {
		tester Tester
		want   string
	}{
		{s, "single"}, {m, "multi"}, {n, "multi-naive"},
		{c, "collusion"}, {cm, "collusion-multi"},
	} {
		if got := tc.tester.Name(); got != tc.want {
			t.Errorf("Name = %q, want %q", got, tc.want)
		}
	}
}

func TestMultiStrideMultipleWindows(t *testing.T) {
	cfg := testConfig()
	cfg.Stride = 20 // 2 windows per stride
	multi, err := NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := NewMultiNaive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := honestHistory(t, stats.NewRNG(37), 200, 0.9)
	vo, err := multi.Test(h)
	if err != nil {
		t.Fatal(err)
	}
	vn, err := naive.Test(h)
	if err != nil {
		t.Fatal(err)
	}
	// 20 windows, stride 2: suffixes 20,18,...,4 = 9.
	if len(vo.Suffixes) != 9 {
		t.Fatalf("suffixes = %d, want 9", len(vo.Suffixes))
	}
	if len(vn.Suffixes) != len(vo.Suffixes) {
		t.Fatalf("naive suffixes = %d", len(vn.Suffixes))
	}
	for i := range vo.Suffixes {
		if vo.Suffixes[i] != vn.Suffixes[i] {
			t.Fatalf("suffix %d: %+v vs %+v", i, vo.Suffixes[i], vn.Suffixes[i])
		}
	}
}
