package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

var scenarioCalibrator = stats.NewCalibrator(stats.CalibrationConfig{Seed: 9, Replicates: 300}, 0)

func scenarioAssessor(t *testing.T, withTester bool) *core.TwoPhase {
	t.Helper()
	var tester behavior.Tester
	if withTester {
		// Continuous assessment of honest servers needs the familywise
		// correction; without it the per-suffix 5% false-positive rate
		// compounds across dozens of suffixes.
		m, err := behavior.NewMulti(behavior.Config{
			Calibrator:           scenarioCalibrator,
			FamilywiseCorrection: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tester = m
	}
	tp, err := core.NewTwoPhase(tester, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

func baseConfig() Config {
	return Config{
		Seed:      1,
		Steps:     600,
		Clients:   100,
		Threshold: 0.9,
		Warmup:    150,
		Servers: []ServerSpec{
			{ID: "honest-1", Kind: Honest, P: 0.95},
			{ID: "honest-2", Kind: Honest, P: 0.92},
			{ID: "hibernator", Kind: Hibernating, P: 0.97, PrepLen: 200},
		},
	}
}

func TestRunValidation(t *testing.T) {
	tp := scenarioAssessor(t, false)
	if _, err := Run(Config{}, nil); err == nil {
		t.Error("nil assessor must fail")
	}
	bad := baseConfig()
	bad.Clients = 0
	if _, err := Run(bad, tp); err == nil {
		t.Error("0 clients must fail")
	}
	bad = baseConfig()
	bad.Servers = nil
	if _, err := Run(bad, tp); err == nil {
		t.Error("no servers must fail")
	}
	bad = baseConfig()
	bad.Servers = []ServerSpec{{ID: "", Kind: Honest, P: 0.9}}
	if _, err := Run(bad, tp); err == nil {
		t.Error("empty server ID must fail")
	}
	bad = baseConfig()
	bad.Servers = []ServerSpec{{ID: "x", Kind: Periodic, P: 0.9, AttackWindow: 0}}
	if _, err := Run(bad, tp); err == nil {
		t.Error("periodic without window must fail")
	}
	bad = baseConfig()
	bad.Servers = []ServerSpec{{ID: "x", Kind: ServerKind(99), P: 0.9}}
	if _, err := Run(bad, tp); err == nil {
		t.Error("unknown kind must fail")
	}
	plain, err := core.NewTwoPhase(nil, plainFunc{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(baseConfig(), plain); err == nil {
		t.Error("an assessor without an incremental form must fail")
	}
}

// plainFunc is a trust function without a tracker.
type plainFunc struct{}

func (plainFunc) Name() string                                { return "plain" }
func (plainFunc) Evaluate(*feedback.History) (float64, error) { return 0.5, nil }

func TestRunDeterministic(t *testing.T) {
	tp := scenarioAssessor(t, false)
	a, err := Run(baseConfig(), tp)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(), tp)
	if err != nil {
		t.Fatal(err)
	}
	if a.Transactions != b.Transactions || a.BadServed != b.BadServed {
		t.Fatalf("not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunBehaviorTestingReducesHarm(t *testing.T) {
	// The end-to-end claim of the paper: with phase-1 testing the
	// hibernating provider is flagged shortly after it turns, so clients
	// suffer fewer bad transactions than under the bare average function.
	cfg := baseConfig()
	bare, err := Run(cfg, scenarioAssessor(t, false))
	if err != nil {
		t.Fatal(err)
	}
	tested, err := Run(cfg, scenarioAssessor(t, true))
	if err != nil {
		t.Fatal(err)
	}
	hibBare := bare.PerServer["hibernator"]
	hibTested := tested.PerServer["hibernator"]
	if hibTested.BadServed >= hibBare.BadServed {
		t.Fatalf("behaviour testing did not reduce harm: bare=%d tested=%d",
			hibBare.BadServed, hibTested.BadServed)
	}
	if hibTested.Flagged == 0 {
		t.Fatal("hibernator was never flagged")
	}
}

func TestRunHonestServersKeepServing(t *testing.T) {
	cfg := Config{
		Seed: 3, Steps: 400, Clients: 50, Threshold: 0.9, Warmup: 150,
		Servers: []ServerSpec{{ID: "honest", Kind: Honest, P: 0.96}},
	}
	m, err := Run(cfg, scenarioAssessor(t, true))
	if err != nil {
		t.Fatal(err)
	}
	hm := m.PerServer["honest"]
	// The honest server must get the vast majority of assessed steps.
	if hm.Transactions < cfg.Steps*8/10 {
		t.Fatalf("honest server served only %d/%d assessed steps",
			hm.Transactions, cfg.Steps)
	}
}

func TestRunPeriodicProvider(t *testing.T) {
	cfg := Config{
		Seed: 4, Steps: 300, Clients: 50, Threshold: 0.85, Warmup: 200,
		Servers: []ServerSpec{
			{ID: "periodic", Kind: Periodic, P: 1.0, AttackWindow: 10, BadFrac: 0.1},
			{ID: "honest", Kind: Honest, P: 0.9},
		},
	}
	tested, err := Run(cfg, scenarioAssessor(t, true))
	if err != nil {
		t.Fatal(err)
	}
	pm := tested.PerServer["periodic"]
	if pm.Flagged == 0 {
		t.Fatal("deterministic periodic provider was never flagged")
	}
	if tested.Transactions == 0 {
		t.Fatal("no transactions happened")
	}
}

func TestMetricsConsistency(t *testing.T) {
	m, err := Run(baseConfig(), scenarioAssessor(t, false))
	if err != nil {
		t.Fatal(err)
	}
	totalTx, totalBad, totalWarmBad := 0, 0, 0
	for id, sm := range m.PerServer {
		totalTx += sm.Transactions
		totalBad += sm.BadServed
		totalWarmBad += sm.WarmupBad
		h, ok := m.Histories[id]
		if !ok {
			t.Fatalf("missing history for %s", id)
		}
		if h.Len() != sm.WarmupTransactions+sm.Transactions {
			t.Fatalf("%s: history len %d != warmup %d + assessed %d",
				id, h.Len(), sm.WarmupTransactions, sm.Transactions)
		}
		if h.Len()-h.GoodCount() != sm.WarmupBad+sm.BadServed {
			t.Fatalf("%s: bad mismatch", id)
		}
	}
	if totalTx != m.Transactions || totalBad != m.BadServed || totalWarmBad != m.WarmupBad {
		t.Fatalf("aggregates mismatch: %d/%d/%d vs %d/%d/%d",
			totalTx, totalBad, totalWarmBad, m.Transactions, m.BadServed, m.WarmupBad)
	}
}

func TestServerKindString(t *testing.T) {
	if Honest.String() != "honest" || Hibernating.String() != "hibernating" || Periodic.String() != "periodic" {
		t.Error("kind strings wrong")
	}
	if !strings.Contains(ServerKind(42).String(), "42") {
		t.Error("unknown kind must include value")
	}
}

func TestRunColludingProvider(t *testing.T) {
	cfg := Config{
		Seed: 9, Steps: 400, Clients: 60, Threshold: 0.9, Warmup: 200,
		Servers: []ServerSpec{
			{ID: "honest", Kind: Honest, P: 0.93},
			{ID: "ring", Kind: Colluding, P: 0.97, Colluders: 5},
		},
	}
	// Issuer-blind assessor: the ring's colluder-built reputation gets it
	// selected, and every real client it serves gets cheated.
	blind, err := core.NewTwoPhase(nil, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	mBlind, err := Run(cfg, blind)
	if err != nil {
		t.Fatal(err)
	}
	ringBlind := mBlind.PerServer["ring"]
	if ringBlind.FakeFeedback == 0 {
		t.Fatal("no fakes injected")
	}
	if ringBlind.BadServed == 0 {
		t.Fatal("ring never got to cheat under the blind assessor")
	}

	// Collusion-resilient assessor: the ring is flagged and starved.
	colTester, err := behavior.NewCollusion(behavior.Config{Calibrator: scenarioCalibrator})
	if err != nil {
		t.Fatal(err)
	}
	resilient, err := core.NewTwoPhase(colTester, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	mRes, err := Run(cfg, resilient)
	if err != nil {
		t.Fatal(err)
	}
	ringRes := mRes.PerServer["ring"]
	if ringRes.BadServed >= ringBlind.BadServed {
		t.Fatalf("collusion testing did not reduce ring harm: %d vs %d",
			ringRes.BadServed, ringBlind.BadServed)
	}
	if ringRes.Flagged == 0 {
		t.Fatal("ring never flagged by the collusion tester")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/scenario-seed1.json from this build instead of comparing")

// TestScenarioGolden pins the Metrics of one seeded marketplace with every
// provider kind, run once under the multi tester and once under the
// collusion-multi tester. They are pure functions of the seed (and of the
// calibration stream, ADR 0007): a refactor of how Run consults the assessor
// must leave every count as committed. Each run gets its own calibrator:
// under the familywise correction nearby confidences share a grid bucket,
// and the first to fill a point decides it, so a calibrator shared with the
// other tests would make the counts depend on test order. After a change
// that is meant to move them: go test ./internal/sim -run ScenarioGolden
// -update.
func TestScenarioGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden was recorded on amd64, not %s", runtime.GOARCH)
	}
	cfg := Config{
		Seed: 11, Steps: 300, Clients: 60, Threshold: 0.9, Warmup: 150,
		Servers: []ServerSpec{
			{ID: "honest", Kind: Honest, P: 0.94},
			{ID: "hibernator", Kind: Hibernating, P: 0.97, PrepLen: 200},
			{ID: "periodic", Kind: Periodic, P: 1.0, AttackWindow: 10, BadFrac: 0.1},
			{ID: "ring", Kind: Colluding, P: 0.97, Colluders: 5},
		},
	}
	got := map[string]*Metrics{}
	for _, run := range []struct {
		name   string
		tester func(behavior.Config) (behavior.Tester, error)
	}{
		{"multi", func(c behavior.Config) (behavior.Tester, error) { return behavior.NewMulti(c) }},
		{"collusion-multi", func(c behavior.Config) (behavior.Tester, error) { return behavior.NewCollusionMulti(c) }},
	} {
		tester, err := run.tester(behavior.Config{
			Calibrator:           stats.NewCalibrator(stats.CalibrationConfig{Seed: 9, Replicates: 300}, 0),
			FamilywiseCorrection: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		tp, err := core.NewTwoPhase(tester, trust.Average{})
		if err != nil {
			t.Fatal(err)
		}
		if got[run.name], err = Run(cfg, tp); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
	}
	js, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	js = append(js, '\n')
	path := filepath.Join("testdata", "scenario-seed1.json")
	if *update {
		if err := os.WriteFile(path, js, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, want) {
		t.Errorf("metrics differ from %s\n--- got\n%s--- want\n%s", path, js, want)
	}
}

func TestColludingSpecValidation(t *testing.T) {
	cfg := baseConfig()
	cfg.Servers = []ServerSpec{{ID: "x", Kind: Colluding, P: 0.9, Colluders: 0}}
	if _, err := Run(cfg, scenarioAssessor(t, false)); err == nil {
		t.Fatal("colluding without ring size must fail")
	}
	if Colluding.String() != "colluding" {
		t.Fatal("kind string")
	}
}
