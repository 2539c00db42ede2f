package experiment

import (
	"errors"
	"fmt"
	"strconv"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/sim"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// CollusionConfig parameterises the collusion experiments of Figs. 5 and 6:
// 100 potential clients of which 5 collude with the attacker; the attacker
// preps its reputation purely through colluders, then wants GoalBad bad
// transactions. The y axis is the number of genuinely good services the
// attacker is forced to provide to non-colluders.
type CollusionConfig struct {
	// PrepSizes is the x axis; nil means {100 … 800}.
	PrepSizes []int
	// GoalBad is M; zero means 20.
	GoalBad int
	// PrepP is the target preparation reputation; zero means 0.95.
	PrepP float64
	// Threshold is the clients' trust threshold; zero means 0.9.
	Threshold float64
	// Clients is the total client pool; zero means 100.
	Clients int
	// Colluders is the number of colluders within the pool; zero means 5.
	Colluders int
	// Trials averages over seeded runs; zero means 3.
	Trials int
	// Seed drives all randomness.
	Seed uint64
	// CalibrationReplicates tunes the Monte-Carlo ε estimation; zero means
	// 500.
	CalibrationReplicates int
}

func (c CollusionConfig) withDefaults() CollusionConfig {
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
	if c.Clients == 0 {
		c.Clients = 100
	}
	if c.Colluders == 0 {
		c.Colluders = 5
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	return c
}

// RunFig5 regenerates Fig. 5: cost of attackers with collusion under the
// average trust function.
func RunFig5(cfg CollusionConfig) (*Result, error) {
	return runCollusionFigure("fig5", "Cost of attackers with collusion: average function",
		trust.Average{}, cfg)
}

// RunFig6 regenerates Fig. 6: cost of attackers with collusion under the
// weighted trust function (λ = 0.5).
func RunFig6(cfg CollusionConfig) (*Result, error) {
	w, err := trust.NewWeighted(DefaultLambda)
	if err != nil {
		return nil, err
	}
	return runCollusionFigure("fig6", "Cost of attackers with collusion: weighted function",
		w, cfg)
}

func runCollusionFigure(id, title string, fn trust.Func, cfg CollusionConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	cal := newCalibrator(cfg.Seed+2000, cfg.CalibrationReplicates)
	bcfg := behavior.Config{WindowSize: DefaultWindowSize, Calibrator: cal}

	singleCol, err := behavior.NewCollusion(bcfg)
	if err != nil {
		return nil, err
	}
	multiCol, err := behavior.NewCollusionMulti(bcfg)
	if err != nil {
		return nil, err
	}
	schemes := []struct {
		name   string
		tester behavior.Tester
	}{
		{fn.Name(), nil},
		{"scheme1+" + fn.Name(), singleCol},
		{"scheme2+" + fn.Name(), multiCol},
	}

	res := &Result{
		ID:     id,
		Title:  title,
		XLabel: "initial history size",
		YLabel: fmt.Sprintf("good transactions to non-colluders to launch %d attacks", cfg.GoalBad),
	}
	for _, sch := range schemes {
		assessor, err := core.NewTwoPhase(sch.tester, fn)
		if err != nil {
			return nil, err
		}
		series := Series{Name: sch.name}
		for _, prep := range cfg.PrepSizes {
			mean, note, err := meanCollusionCost(assessor, cfg, prep)
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

func meanCollusionCost(assessor *core.TwoPhase, cfg CollusionConfig, prep int) (float64, string, error) {
	colluders := make([]feedback.EntityID, cfg.Colluders)
	for i := range colluders {
		colluders[i] = feedback.EntityID("colluder-" + strconv.Itoa(i))
	}
	total := 0
	note := ""
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed ^ (uint64(prep)<<20 + uint64(trial) + 0xabcd)
		rng := stats.NewRNG(seed)
		h, err := attack.PrepareByColluders("attacker", prep, cfg.PrepP, colluders, rng)
		if err != nil {
			return 0, "", err
		}
		pop, err := sim.NewPopulation("client", cfg.Clients-cfg.Colluders, 0, 0, 0, rng.Split())
		if err != nil {
			return 0, "", err
		}
		c := &attack.Colluding{
			Assessor:  assessor,
			Threshold: cfg.Threshold,
			GoalBad:   cfg.GoalBad,
			Colluders: colluders,
			MaxSteps:  500 * cfg.GoalBad,
		}
		cost, err := c.Run(h, pop)
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
