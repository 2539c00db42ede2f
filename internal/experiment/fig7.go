package experiment

import (
	"errors"
	"fmt"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/stats"
)

// detectionParams parameterises the Fig. 7 detection-rate experiment: a
// periodic attacker keeps its reputation at ≈ 0.9 by launching N·0.1 attacks
// within every attack window of N transactions; the figure plots the
// fraction of such attackers the behaviour test flags, as the window size N
// grows (and the pattern approaches genuine Bernoulli behaviour).
type detectionParams struct {
	windowSizes []int // the x axis
	trials      int   // attacker histories per point
	replicates  int   // Monte-Carlo replicates per calibrated ε
}

func detectionScale(quick bool) detectionParams {
	p := detectionParams{windowSizes: []int{10, 20, 30, 40, 50, 60, 70, 80}, trials: 200, replicates: 500}
	if quick {
		p.trials, p.replicates = 40, 200
	}
	return p
}

// Each Fig. 7 attacker has a 600-transaction history, 10 % of it attacks.
const (
	detectionHistoryLen = 600
	detectionBadFrac    = 0.1
)

// runFig7 regenerates Fig. 7: detection rate vs. attack window size.
func runFig7(p detectionParams, seed uint64) (*Result, error) {
	cal := newCalibrator(seed+3000, p.replicates)
	bcfg := behavior.Config{WindowSize: windowSize, Calibrator: cal}
	single, err := behavior.NewSingle(bcfg)
	if err != nil {
		return nil, err
	}
	multi, err := behavior.NewMulti(bcfg)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "fig7",
		Title:  "Detection rate vs. attack window size",
		XLabel: "attack window size",
		YLabel: "detection rate",
	}
	testers := []behavior.Tester{single, multi}
	rng := stats.NewRNG(seed)
	for _, tester := range testers {
		series := Series{Name: tester.Name()}
		for _, window := range p.windowSizes {
			detected := 0
			for trial := 0; trial < p.trials; trial++ {
				h, err := attack.GenPeriodic("attacker", detectionHistoryLen, window, detectionBadFrac, rng)
				if err != nil {
					return nil, err
				}
				v, err := tester.Test(h)
				if err != nil {
					if errors.Is(err, behavior.ErrInsufficientHistory) {
						return nil, fmt.Errorf("history length %d too short: %w", detectionHistoryLen, err)
					}
					return nil, err
				}
				if !v.Honest {
					detected++
				}
			}
			series.Points = append(series.Points, Point{
				X: float64(window),
				Y: float64(detected) / float64(p.trials),
			})
		}
		res.Series = append(res.Series, series)
	}
	res.Notes = append(res.Notes,
		"false-positive context: an honest player passes with ~95% probability per single test")
	return res, nil
}
