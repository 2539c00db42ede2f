package attack

import (
	"errors"
	"testing"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// BenchmarkStrategicRun measures a full strategic attack against the
// Scheme-2 defence — the inner loop of the Fig. 3/4 experiments.
func BenchmarkStrategicRun(b *testing.B) {
	cal := stats.NewCalibrator(stats.CalibrationConfig{Seed: 1, Replicates: 200}, 0)
	tester, err := behavior.NewMulti(behavior.Config{Calibrator: cal})
	if err != nil {
		b.Fatal(err)
	}
	assessor, err := core.NewTwoPhase(tester, trust.Average{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := stats.NewRNG(uint64(i))
		h, err := PrepareHistory("a", 300, 0.95, 50, rng)
		if err != nil {
			b.Fatal(err)
		}
		s := &Strategic{Assessor: assessor, Threshold: 0.9, GoalBad: 5}
		// ErrGoalUnreachable is a legitimate outcome: some preparation
		// histories trip the behaviour test on their own and the defence
		// simply never lets the attacker cheat within the budget.
		if _, err := s.Run(h); err != nil && !errors.Is(err, ErrGoalUnreachable) {
			b.Fatal(err)
		}
	}
}

// BenchmarkColludingRun measures a full colluding attack against the
// collusion-resilient Scheme-2 defence after a 500-record colluder-built
// preparation — the inner loop of the Fig. 5/6 experiments.
func BenchmarkColludingRun(b *testing.B) {
	cal := stats.NewCalibrator(stats.CalibrationConfig{Seed: 1, Replicates: 200}, 0)
	tester, err := behavior.NewCollusionMulti(behavior.Config{Calibrator: cal})
	if err != nil {
		b.Fatal(err)
	}
	assessor, err := core.NewTwoPhase(tester, trust.Average{})
	if err != nil {
		b.Fatal(err)
	}
	ring := colluders(5)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rng := stats.NewRNG(uint64(i))
		h, err := PrepareByColluders("a", 500, 0.95, ring, rng)
		if err != nil {
			b.Fatal(err)
		}
		c := &Colluding{Assessor: assessor, Threshold: 0.9, GoalBad: 5, Colluders: ring, MaxSteps: 500}
		if _, err := c.Run(h, &UniformClients{Pool: 95, RNG: rng}); err != nil && !errors.Is(err, ErrGoalUnreachable) {
			b.Fatal(err)
		}
	}
}
