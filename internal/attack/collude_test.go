package attack

import (
	"errors"
	"testing"

	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

func colluders(n int) []feedback.EntityID {
	out := make([]feedback.EntityID, n)
	for i := range out {
		out[i] = feedback.EntityID(rune('A' + i))
	}
	return out
}

func collusionTester(t *testing.T) behavior.Tester {
	t.Helper()
	c, err := behavior.NewCollusion(testerConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestColludingValidation(t *testing.T) {
	rng := stats.NewRNG(1)
	h, _ := PrepareByColluders("a", 200, 0.95, colluders(5), rng)
	src := &UniformClients{Pool: 95, RNG: rng}
	tests := []Colluding{
		{Assessor: nil, Threshold: 0.9, GoalBad: 1, Colluders: colluders(5)},
		{Assessor: assessor(t, nil, trust.Average{}), Threshold: 0.9, GoalBad: 1, Colluders: nil},
		{Assessor: assessor(t, nil, trust.Average{}), Threshold: 2, GoalBad: 1, Colluders: colluders(5)},
		{Assessor: assessor(t, nil, trust.Average{}), Threshold: 0.9, GoalBad: 0, Colluders: colluders(5)},
		{Assessor: assessor(t, nil, trust.Average{}), Threshold: 0.9, GoalBad: 1, Colluders: []feedback.EntityID{"A", ""}},
		{Assessor: assessor(t, nil, plainFunc{}), Threshold: 0.9, GoalBad: 1, Colluders: colluders(5)},
	}
	for i, c := range tests {
		if _, err := c.Run(h, src); !errors.Is(err, ErrBadParams) {
			t.Errorf("case %d: %v", i, err)
		}
	}
	ok := Colluding{Assessor: assessor(t, nil, trust.Average{}), Threshold: 0.9, GoalBad: 1, Colluders: colluders(5)}
	if _, err := ok.Run(h, nil); !errors.Is(err, ErrBadParams) {
		t.Errorf("nil source: %v", err)
	}
}

func TestColludingBaselineFreeRide(t *testing.T) {
	// Paper §5.2: without behaviour testing, colluders let the attacker
	// reach its goal without providing any good services.
	rng := stats.NewRNG(11)
	h, err := PrepareByColluders("a", 300, 0.95, colluders(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	c := Colluding{
		Assessor:  assessor(t, nil, trust.Average{}),
		Threshold: 0.9,
		GoalBad:   20,
		Colluders: colluders(5),
	}
	src := &UniformClients{Pool: 95, RNG: rng}
	cost, err := c.Run(h, src)
	if err != nil {
		t.Fatal(err)
	}
	if cost.Bad != 20 {
		t.Fatalf("bad = %d", cost.Bad)
	}
	if cost.Good != 0 {
		t.Fatalf("baseline collusion cost = %d good transactions, want 0", cost.Good)
	}
}

func TestColludingResilientTestingForcesRealService(t *testing.T) {
	// With collusion-resilient multi-testing the attacker must serve real
	// clients well; fake feedback alone cannot keep the issuer-ordered
	// distribution binomial over the recent suffixes.
	rng := stats.NewRNG(13)
	h, err := PrepareByColluders("a", 300, 0.95, colluders(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := behavior.NewCollusionMulti(testerConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := Colluding{
		Assessor:  assessor(t, cm, trust.Average{}),
		Threshold: 0.9,
		GoalBad:   10,
		Colluders: colluders(5),
		MaxSteps:  20000,
	}
	src := &UniformClients{Pool: 95, RNG: rng}
	cost, err := c.Run(h, src)
	if err != nil {
		// Reaching the goal may be outright impossible within budget —
		// that is an even stronger defence outcome.
		if errors.Is(err, ErrGoalUnreachable) {
			if cost.Good == 0 {
				t.Fatalf("goal unreachable yet no good services forced: %+v", cost)
			}
			return
		}
		t.Fatal(err)
	}
	if cost.Good == 0 {
		t.Fatalf("collusion-resilient testing imposed no real cost: %+v", cost)
	}
}

func TestColludingRunsWithSingleCollusionTester(t *testing.T) {
	rng := stats.NewRNG(17)
	h, err := PrepareByColluders("a", 200, 0.95, colluders(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	c := Colluding{
		Assessor:  assessor(t, collusionTester(t), trust.Average{}),
		Threshold: 0.9,
		GoalBad:   5,
		Colluders: colluders(5),
		MaxSteps:  5000,
	}
	src := &UniformClients{Pool: 95, RNG: rng}
	cost, err := c.Run(h, src)
	if err != nil && !errors.Is(err, ErrGoalUnreachable) {
		t.Fatal(err)
	}
	if cost.Steps == 0 {
		t.Fatal("attack did not run")
	}
}

func TestUniformClients(t *testing.T) {
	src := &UniformClients{Pool: 10, RNG: stats.NewRNG(1)}
	seen := make(map[feedback.EntityID]bool)
	for i := 0; i < 200; i++ {
		c := src.Next(0.9)
		if c == "" {
			t.Fatal("empty client")
		}
		seen[c] = true
		src.Observe(c, true)
	}
	if len(seen) < 8 {
		t.Fatalf("saw only %d distinct clients", len(seen))
	}
}
