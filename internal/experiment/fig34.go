package experiment

import (
	"errors"
	"fmt"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// CostConfig parameterises the attacker-cost experiments of Figs. 3 and 4:
// how many good transactions a strategic attacker must conduct to land
// GoalBad bad ones, as a function of its preparation-history size, under
// three defences: the bare trust function, Scheme 1 (single behaviour
// testing) + trust function, and Scheme 2 (multi-testing) + trust function.
type CostConfig struct {
	// PrepSizes is the x axis; nil means {100 … 800}.
	PrepSizes []int
	// GoalBad is M; zero means 20.
	GoalBad int
	// PrepP is the preparation trustworthiness; zero means 0.95.
	PrepP float64
	// Threshold is the clients' trust threshold; zero means 0.9.
	Threshold float64
	// Trials averages the attacker cost over this many seeded runs; zero
	// means 3.
	Trials int
	// Seed drives all randomness.
	Seed uint64
	// CalibrationReplicates tunes the Monte-Carlo ε estimation; zero means
	// 500.
	CalibrationReplicates int
}

func (c CostConfig) withDefaults() CostConfig {
	if c.PrepSizes == nil {
		c.PrepSizes = defaultPrepSizes()
	}
	if c.GoalBad == 0 {
		c.GoalBad = DefaultGoalBad
	}
	if c.PrepP == 0 {
		c.PrepP = DefaultPrepP
	}
	if c.Threshold == 0 {
		c.Threshold = DefaultThreshold
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	return c
}

// RunFig3 regenerates Fig. 3: attacker cost vs. initial history size under
// the average trust function.
func RunFig3(cfg CostConfig) (*Result, error) {
	return runCostFigure("fig3", "Cost of attackers when varying initial histories: average function",
		trust.Average{}, cfg)
}

// RunFig4 regenerates Fig. 4: attacker cost vs. initial history size under
// the weighted trust function (λ = 0.5).
func RunFig4(cfg CostConfig) (*Result, error) {
	w, err := trust.NewWeighted(DefaultLambda)
	if err != nil {
		return nil, err
	}
	return runCostFigure("fig4", "Cost of attackers when varying initial histories: weighted function",
		w, cfg)
}

func runCostFigure(id, title string, fn trust.Func, cfg CostConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	cal := newCalibrator(cfg.Seed+1000, cfg.CalibrationReplicates)
	bcfg := behavior.Config{WindowSize: DefaultWindowSize, Calibrator: cal}

	single, err := behavior.NewSingle(bcfg)
	if err != nil {
		return nil, err
	}
	multi, err := behavior.NewMulti(bcfg)
	if err != nil {
		return nil, err
	}
	schemes := []struct {
		name   string
		tester behavior.Tester
	}{
		{fn.Name(), nil},
		{"scheme1+" + fn.Name(), single},
		{"scheme2+" + fn.Name(), multi},
	}

	res := &Result{
		ID:     id,
		Title:  title,
		XLabel: "initial history size",
		YLabel: fmt.Sprintf("good transactions to launch %d attacks", cfg.GoalBad),
	}
	for _, sch := range schemes {
		assessor, err := core.NewTwoPhase(sch.tester, fn)
		if err != nil {
			return nil, err
		}
		series := Series{Name: sch.name}
		for _, prep := range cfg.PrepSizes {
			mean, note, err := meanStrategicCost(assessor, cfg, prep)
			if err != nil {
				return nil, fmt.Errorf("%s prep=%d: %w", sch.name, prep, err)
			}
			if note != "" {
				res.Notes = append(res.Notes, note)
			}
			series.Points = append(series.Points, Point{X: float64(prep), Y: mean})
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// meanStrategicCost runs the strategic attacker cfg.Trials times against
// one defence and returns the mean number of good transactions needed.
// Runs that exhaust the step budget contribute their (lower-bound) cost and
// a note.
func meanStrategicCost(assessor *core.TwoPhase, cfg CostConfig, prep int) (float64, string, error) {
	total := 0
	note := ""
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed ^ (uint64(prep)<<20 + uint64(trial))
		rng := stats.NewRNG(seed)
		h, err := attack.PrepareHistory("attacker", prep, cfg.PrepP, 50, rng)
		if err != nil {
			return 0, "", err
		}
		s := &attack.Strategic{
			Assessor:  assessor,
			Threshold: cfg.Threshold,
			GoalBad:   cfg.GoalBad,
			MaxSteps:  500 * cfg.GoalBad,
		}
		cost, err := s.Run(h)
		switch {
		case errors.Is(err, attack.ErrGoalUnreachable):
			note = fmt.Sprintf("%s: goal unreachable within budget at prep=%d (cost is a lower bound)",
				assessor.Name(), prep)
		case err != nil:
			return 0, "", err
		}
		total += cost.Good
	}
	return float64(total) / float64(cfg.Trials), note, nil
}
