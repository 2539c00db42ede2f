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

// costParams parameterises the attacker-cost experiments of Figs. 3–6: how
// many good transactions an attacker must conduct to land goalBad bad ones,
// as a function of its preparation-history size, under three defences: the
// bare trust function, Scheme 1 (single behaviour testing) + trust function,
// and Scheme 2 (multi-testing) + trust function.
type costParams struct {
	prepSizes  []int // the x axis
	goalBad    int   // M
	trials     int   // seeded runs averaged per point
	replicates int   // Monte-Carlo replicates per calibrated ε
}

func costScale(quick bool) costParams {
	p := costParams{prepSizes: []int{100, 200, 300, 400, 500, 600, 700, 800}, goalBad: 20, trials: 3, replicates: 500}
	if quick {
		p.prepSizes, p.goalBad, p.trials, p.replicates = []int{100, 300, 500, 800}, 10, 1, 200
	}
	return p
}

// In the collusion figures 100 potential clients include 5 colluders.
const (
	clients   = 100
	colluders = 5
)

// runFig3 regenerates Fig. 3: attacker cost vs. initial history size under
// the average trust function.
func runFig3(p costParams, seed uint64) (*Result, error) {
	return runCostFigure("fig3", "Cost of attackers when varying initial histories: average function",
		trust.Average{}, false, p, seed)
}

// runFig4 regenerates Fig. 4: attacker cost vs. initial history size under
// the weighted trust function (λ = 0.5).
func runFig4(p costParams, seed uint64) (*Result, error) {
	w, err := trust.NewWeighted(weightedLambda)
	if err != nil {
		return nil, err
	}
	return runCostFigure("fig4", "Cost of attackers when varying initial histories: weighted function",
		w, false, p, seed)
}

// runFig5 regenerates Fig. 5: cost of attackers with collusion under the
// average trust function.
func runFig5(p costParams, seed uint64) (*Result, error) {
	return runCostFigure("fig5", "Cost of attackers with collusion: average function",
		trust.Average{}, true, p, seed)
}

// runFig6 regenerates Fig. 6: cost of attackers with collusion under the
// weighted trust function (λ = 0.5).
func runFig6(p costParams, seed uint64) (*Result, error) {
	w, err := trust.NewWeighted(weightedLambda)
	if err != nil {
		return nil, err
	}
	return runCostFigure("fig6", "Cost of attackers with collusion: weighted function",
		w, true, p, seed)
}

// runCostFigure runs one of Figs. 3–6. Without collusion a strategic attacker
// preps alone against the single and multi testers. With it the attacker
// preps purely through colluders, the testers are the collusion-resilient
// pair, and the y axis counts only the genuinely good services the attacker
// is forced to provide to non-colluders.
func runCostFigure(id, title string, fn trust.Func, collusion bool, p costParams, seed uint64) (*Result, error) {
	calSeed, yLabel := seed+1000, "good transactions to launch %d attacks"
	if collusion {
		calSeed, yLabel = seed+2000, "good transactions to non-colluders to launch %d attacks"
	}
	bcfg := behavior.Config{WindowSize: windowSize, Calibrator: newCalibrator(calSeed, p.replicates)}
	var single, multi behavior.Tester
	var err error
	if collusion {
		if single, err = behavior.NewCollusion(bcfg); err == nil {
			multi, err = behavior.NewCollusionMulti(bcfg)
		}
	} else if single, err = behavior.NewSingle(bcfg); err == nil {
		multi, err = behavior.NewMulti(bcfg)
	}
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
		YLabel: fmt.Sprintf(yLabel, p.goalBad),
	}
	for _, sch := range schemes {
		assessor, err := core.NewTwoPhase(sch.tester, fn)
		if err != nil {
			return nil, err
		}
		series := Series{Name: sch.name}
		for _, prep := range p.prepSizes {
			mean, note, err := meanCost(assessor, collusion, p, seed, prep)
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

// meanCost runs the attacker p.trials times against one defence and returns
// the mean number of good transactions needed. Runs that exhaust the step
// budget contribute their (lower-bound) cost and a note.
func meanCost(assessor *core.TwoPhase, collusion bool, p costParams, seed uint64, prep int) (float64, string, error) {
	salt := uint64(0)
	if collusion {
		salt = 0xabcd
	}
	total := 0
	note := ""
	for trial := 0; trial < p.trials; trial++ {
		rng := stats.NewRNG(seed ^ (uint64(prep)<<20 + uint64(trial) + salt))
		cost, err := attackCost(assessor, collusion, p.goalBad, prep, rng)
		switch {
		case errors.Is(err, attack.ErrGoalUnreachable):
			note = fmt.Sprintf("%s: goal unreachable within budget at prep=%d (cost is a lower bound)",
				assessor.Name(), prep)
		case err != nil:
			return 0, "", err
		}
		total += cost.Good
	}
	return float64(total) / float64(p.trials), note, nil
}

// attackCost runs one seeded attacker with a preparation history of prep
// transactions until it has launched goalBad attacks.
func attackCost(assessor *core.TwoPhase, collusion bool, goalBad, prep int, rng *stats.RNG) (attack.Cost, error) {
	if !collusion {
		h, err := attack.PrepareHistory("attacker", prep, prepTrust, 50, rng)
		if err != nil {
			return attack.Cost{}, err
		}
		s := &attack.Strategic{
			Assessor:  assessor,
			Threshold: trustThreshold,
			GoalBad:   goalBad,
			MaxSteps:  500 * goalBad,
		}
		return s.Run(h)
	}
	ids := make([]feedback.EntityID, colluders)
	for i := range ids {
		ids[i] = feedback.EntityID("colluder-" + strconv.Itoa(i))
	}
	h, err := attack.PrepareByColluders("attacker", prep, prepTrust, ids, rng)
	if err != nil {
		return attack.Cost{}, err
	}
	pop, err := sim.NewPopulation("client", clients-colluders, 0, 0, 0, rng.Split())
	if err != nil {
		return attack.Cost{}, err
	}
	c := &attack.Colluding{
		Assessor:  assessor,
		Threshold: trustThreshold,
		GoalBad:   goalBad,
		Colluders: ids,
		MaxSteps:  500 * goalBad,
	}
	return c.Run(h, pop)
}
