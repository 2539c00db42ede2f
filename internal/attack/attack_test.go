package attack

import (
	"errors"
	"strings"
	"testing"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// sharedCalibrator keeps Monte-Carlo work across tests down.
var sharedCalibrator = stats.NewCalibrator(stats.CalibrationConfig{Seed: 1, Replicates: 300}, 0)

func testerConfig() behavior.Config {
	return behavior.Config{Calibrator: sharedCalibrator}
}

func assessor(t *testing.T, tester behavior.Tester, fn trust.Func) *core.TwoPhase {
	t.Helper()
	tp, err := core.NewTwoPhase(tester, fn)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func singleTester(t *testing.T) behavior.Tester {
	t.Helper()
	s, err := behavior.NewSingle(testerConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func multiTester(t *testing.T) behavior.Tester {
	t.Helper()
	m, err := behavior.NewMulti(testerConfig())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// plainFunc is a trust function of this package's tests alone, whose value
// never meets a 0.9 threshold.
type plainFunc struct{}

func (plainFunc) Name() string                                { return "plain" }
func (plainFunc) Evaluate(*feedback.History) (float64, error) { return 0.5, nil }

func TestActionString(t *testing.T) {
	if ServeGood.String() != "serve-good" || Cheat.String() != "cheat" || ColludeFake.String() != "collude-fake" {
		t.Error("Action String wrong")
	}
	if !strings.Contains(Action(9).String(), "9") {
		t.Error("unknown action String must include value")
	}
}

func TestPrepareHistory(t *testing.T) {
	rng := stats.NewRNG(1)
	h, err := PrepareHistory("attacker", 1000, 0.95, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 1000 {
		t.Fatalf("len = %d", h.Len())
	}
	ratio := h.GoodRatio()
	if ratio < 0.92 || ratio > 0.98 {
		t.Fatalf("prep ratio = %v, want ~0.95", ratio)
	}
	if h.DistinctClients() < 20 {
		t.Fatalf("distinct clients = %d", h.DistinctClients())
	}
}

func TestPrepareHistoryValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	for _, tc := range []struct {
		n    int
		p    float64
		pool int
	}{{-1, 0.5, 10}, {10, -0.1, 10}, {10, 1.5, 10}, {10, 0.5, 0}} {
		if _, err := PrepareHistory("a", tc.n, tc.p, tc.pool, rng); !errors.Is(err, ErrBadParams) {
			t.Errorf("PrepareHistory(%+v) = %v", tc, err)
		}
	}
}

func TestPrepareByColluders(t *testing.T) {
	rng := stats.NewRNG(2)
	colluders := []feedback.EntityID{"c1", "c2", "c3", "c4", "c5"}
	h, err := PrepareByColluders("attacker", 400, 0.95, colluders, rng)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 400 {
		t.Fatalf("len = %d", h.Len())
	}
	if got := h.DistinctClients(); got > len(colluders) {
		t.Fatalf("distinct clients = %d, want <= %d", got, len(colluders))
	}
	if _, err := PrepareByColluders("a", 10, 0.9, nil, rng); !errors.Is(err, ErrBadParams) {
		t.Errorf("no colluders = %v", err)
	}
}

func TestStrategicValidation(t *testing.T) {
	rng := stats.NewRNG(3)
	h, _ := PrepareHistory("a", 100, 0.95, 10, rng)
	tests := []Strategic{
		{Assessor: nil, Threshold: 0.9, GoalBad: 1},
		{Assessor: assessor(t, nil, trust.Average{}), Threshold: -1, GoalBad: 1},
		{Assessor: assessor(t, nil, trust.Average{}), Threshold: 0.9, GoalBad: 0},
	}
	for i, s := range tests {
		if _, err := s.Run(h); !errors.Is(err, ErrBadParams) {
			t.Errorf("case %d: %v", i, err)
		}
	}
	// Any assessor runs: one that never trusts exhausts the step budget.
	plain := Strategic{Assessor: assessor(t, nil, plainFunc{}), Threshold: 0.9, GoalBad: 1, MaxSteps: 5}
	if _, err := plain.Run(h); !errors.Is(err, ErrGoalUnreachable) {
		t.Errorf("plain trust function: %v", err)
	}
}

func TestStrategicAverageBaselineLargePrep(t *testing.T) {
	// Paper §5.1: with >= 400 prepared transactions at 95% and the plain
	// average function, the attacker launches 20 consecutive attacks at
	// zero (or near-zero) cost — the hibernating attack.
	rng := stats.NewRNG(4)
	h, err := PrepareHistory("a", 600, 0.95, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := &Strategic{Assessor: assessor(t, nil, trust.Average{}), Threshold: 0.9, GoalBad: 20}
	cost, err := s.Run(h)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Bad != 20 {
		t.Fatalf("bad = %d", cost.Bad)
	}
	if cost.Good > 5 {
		t.Fatalf("baseline cost with 600 prep = %d good, want ~0", cost.Good)
	}
}

func TestStrategicAverageBaselineSmallPrepCostlier(t *testing.T) {
	rng := stats.NewRNG(5)
	costAt := func(prep int) int {
		h, err := PrepareHistory("a", prep, 0.95, 50, rng.Split())
		if err != nil {
			t.Fatal(err)
		}
		s := &Strategic{Assessor: assessor(t, nil, trust.Average{}), Threshold: 0.9, GoalBad: 20}
		cost, err := s.Run(h)
		if err != nil {
			t.Fatal(err)
		}
		return cost.Good
	}
	small, large := costAt(100), costAt(500)
	if small <= large {
		t.Fatalf("cost did not decrease with prep size: prep100=%d prep500=%d", small, large)
	}
}

func TestStrategicWeightedBaselineNoConsecutiveBad(t *testing.T) {
	// With the weighted function at lambda=0.5, one bad transaction drops
	// trust below 0.9, so the attacker can never cheat twice in a row and
	// pays 2-3 good transactions per attack (§5.1).
	rng := stats.NewRNG(6)
	h, err := PrepareHistory("a", 200, 0.95, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trust.NewWeighted(0.5)
	if err != nil {
		t.Fatal(err)
	}
	s := &Strategic{Assessor: assessor(t, nil, w), Threshold: 0.9, GoalBad: 20}
	cost, err := s.Run(h)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Bad != 20 {
		t.Fatalf("bad = %d", cost.Bad)
	}
	// 2 goods per bad minimum: cost in [40, 70] typically.
	if cost.Good < 20 || cost.Good > 100 {
		t.Fatalf("weighted baseline cost = %d, want ~40-60", cost.Good)
	}
	// Verify no two consecutive bad transactions in the attack phase.
	outs := h.Outcomes()
	for i := 201; i < len(outs); i++ {
		if !outs[i] && !outs[i-1] {
			t.Fatal("two consecutive bad transactions slipped past the weighted function")
		}
	}
}

func TestStrategicBehaviorTestingRaisesCost(t *testing.T) {
	// The central claim: adding phase-1 testing forces more good
	// transactions than the bare average function for the same goal.
	run := func(tp *core.TwoPhase) int {
		h, err := PrepareHistory("a", 400, 0.95, 50, stats.NewRNG(77))
		if err != nil {
			t.Fatal(err)
		}
		s := &Strategic{Assessor: tp, Threshold: 0.9, GoalBad: 10}
		cost, err := s.Run(h)
		if err != nil {
			t.Fatal(err)
		}
		return cost.Good
	}
	bare := run(assessor(t, nil, trust.Average{}))
	tested := run(assessor(t, singleTester(t), trust.Average{}))
	multi := run(assessor(t, multiTester(t), trust.Average{}))
	if tested < bare {
		t.Fatalf("single testing lowered cost: bare=%d tested=%d", bare, tested)
	}
	if multi < tested {
		t.Fatalf("multi testing below single testing: single=%d multi=%d", tested, multi)
	}
	if multi == 0 {
		t.Fatal("multi testing imposed no cost")
	}
}

func TestStrategicMultiCostStableAcrossPrep(t *testing.T) {
	// Fig. 3's key shape: under multi-testing the attacker's cost does not
	// collapse as the preparation history grows.
	costAt := func(prep int) int {
		h, err := PrepareHistory("a", prep, 0.95, 50, stats.NewRNG(uint64(prep)))
		if err != nil {
			t.Fatal(err)
		}
		s := &Strategic{Assessor: assessor(t, multiTester(t), trust.Average{}), Threshold: 0.9, GoalBad: 10}
		cost, err := s.Run(h)
		if err != nil {
			t.Fatal(err)
		}
		return cost.Good
	}
	small, large := costAt(200), costAt(800)
	if small == 0 || large == 0 {
		t.Fatalf("multi-testing imposed no cost: prep200=%d prep800=%d", small, large)
	}
	// Large prep must not make the attack dramatically cheaper (allow 2.5x
	// stochastic slack; the baseline collapses to 0).
	if float64(large) < float64(small)/2.5 {
		t.Fatalf("cost collapsed with prep size: prep200=%d prep800=%d", small, large)
	}
}

func TestStrategicGoalUnreachable(t *testing.T) {
	rng := stats.NewRNG(9)
	h, err := PrepareHistory("a", 100, 0.95, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	s := &Strategic{
		Assessor:  assessor(t, nil, trust.Average{}),
		Threshold: 1.0, // impossible: any bad transaction breaks it
		GoalBad:   1,
		MaxSteps:  50,
	}
	cost, err := s.Run(h)
	if !errors.Is(err, ErrGoalUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if cost.Steps != 50 {
		t.Fatalf("steps = %d", cost.Steps)
	}
}
