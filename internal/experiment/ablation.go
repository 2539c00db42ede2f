package experiment

import (
	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/stats"
)

// Ablation experiments beyond the paper's figures, backing the design
// choices called out in DESIGN.md: the transaction-window size m, the
// familywise correction for multi-testing, and the Monte-Carlo replicate
// count behind the threshold calibration.

// windowParams parameterises the window-size ablation: detection rate of a
// periodic attacker and pass rate of honest players as the window size m
// varies around the paper's choice of 10.
type windowParams struct {
	windowSizes []int // the m values to compare
	trials      int   // histories of each kind per point
	replicates  int   // Monte-Carlo replicates per calibrated ε
}

func windowScale(quick bool) windowParams {
	p := windowParams{windowSizes: []int{5, 10, 20, 50}, trials: 150, replicates: 500}
	if quick {
		p.trials, p.replicates = 40, 200
	}
	return p
}

// runAblationWindow measures how the window size m trades attacker
// detection against honest-player false positives.
func runAblationWindow(p windowParams, seed uint64) (*Result, error) {
	// Tested histories are 600 transactions; the periodic attacker's window
	// is 20.
	const historyLen, attackWindow = 600, 20
	cal := newCalibrator(seed+5000, p.replicates)
	res := &Result{
		ID:     "ablation-window",
		Title:  "Window size m: attacker detection vs. honest false positives (single test)",
		XLabel: "window size m",
		YLabel: "rate",
	}
	detect := Series{Name: "periodic-attacker detection"}
	falsePos := Series{Name: "honest false positive"}
	rng := stats.NewRNG(seed)
	for _, m := range p.windowSizes {
		tester, err := behavior.NewSingle(behavior.Config{WindowSize: m, Calibrator: cal})
		if err != nil {
			return nil, err
		}
		detected, flaggedHonest := 0, 0
		for trial := 0; trial < p.trials; trial++ {
			att, err := attack.GenPeriodic("a", historyLen, attackWindow, 0.1, rng)
			if err != nil {
				return nil, err
			}
			v, err := tester.Test(att)
			if err != nil {
				return nil, err
			}
			if !v.Honest {
				detected++
			}
			hon, err := attack.GenHonest("h", historyLen, 0.9, 100, rng)
			if err != nil {
				return nil, err
			}
			v, err = tester.Test(hon)
			if err != nil {
				return nil, err
			}
			if !v.Honest {
				flaggedHonest++
			}
		}
		detect.Points = append(detect.Points, Point{X: float64(m), Y: float64(detected) / float64(p.trials)})
		falsePos.Points = append(falsePos.Points, Point{X: float64(m), Y: float64(flaggedHonest) / float64(p.trials)})
	}
	res.Series = append(res.Series, detect, falsePos)
	return res, nil
}

// correctionParams parameterises the familywise-correction ablation:
// honest-player pass rate of the multi tester with and without the
// Bonferroni correction, as history length grows (and with it the number of
// tested suffixes).
type correctionParams struct {
	historySizes []int // in transactions
	trials       int   // honest histories per point
	// replicates per calibrated ε: the corrected quantiles sit deep in the
	// tail.
	replicates int
}

func correctionScale(quick bool) correctionParams {
	p := correctionParams{historySizes: []int{200, 400, 800, 1600}, trials: 100, replicates: 2000}
	if quick {
		p.historySizes, p.trials, p.replicates = []int{200, 800}, 30, 1000
	}
	return p
}

// runAblationCorrection measures the honest-player pass rate of
// multi-testing with and without the familywise correction. Without it the
// per-suffix 5% false-positive chance compounds and the pass rate collapses
// as histories grow; with it the pass rate stays near the configured 95%.
func runAblationCorrection(p correctionParams, seed uint64) (*Result, error) {
	cal := newCalibrator(seed+6000, p.replicates)
	res := &Result{
		ID:     "ablation-correction",
		Title:  "Honest pass rate of multi-testing: familywise correction on/off",
		XLabel: "history size",
		YLabel: "honest pass rate",
	}
	plain, err := behavior.NewMulti(behavior.Config{Calibrator: cal})
	if err != nil {
		return nil, err
	}
	corrected, err := behavior.NewMulti(behavior.Config{Calibrator: cal, FamilywiseCorrection: true})
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	for _, tc := range []struct {
		name   string
		tester behavior.Tester
	}{
		{"uncorrected (paper)", plain},
		{"bonferroni-corrected", corrected},
	} {
		series := Series{Name: tc.name}
		for _, n := range p.historySizes {
			pass := 0
			for trial := 0; trial < p.trials; trial++ {
				h, err := attack.GenHonest("h", n, 0.9, 100, rng)
				if err != nil {
					return nil, err
				}
				v, err := tc.tester.Test(h)
				if err != nil {
					return nil, err
				}
				if v.Honest {
					pass++
				}
			}
			series.Points = append(series.Points, Point{X: float64(n), Y: float64(pass) / float64(p.trials)})
		}
		res.Series = append(res.Series, series)
	}
	res.Notes = append(res.Notes,
		"the paper calibrates each suffix test at 95% individually; the correction divides the miss probability across suffixes")
	return res, nil
}

// replicatesParams parameterises the calibration-replicates ablation:
// stability of the ε estimate as the Monte-Carlo budget grows.
type replicatesParams struct {
	replicateCounts []int // the budgets to compare
	resamples       int   // independent ε estimates behind each spread
}

func replicatesScale(quick bool) replicatesParams {
	p := replicatesParams{replicateCounts: []int{50, 100, 250, 500, 1000, 2000}, resamples: 20}
	if quick {
		p.replicateCounts, p.resamples = []int{50, 200, 1000}, 8
	}
	return p
}

// runAblationReplicates measures the mean and spread (P95−P05) of the ε
// estimate as a function of the Monte-Carlo replicate count, justifying the
// default of 1000. The calibrated test has 50 windows at p̂ = 0.9.
func runAblationReplicates(p replicatesParams, seed uint64) (*Result, error) {
	const windows, pHat = 50, 0.9
	res := &Result{
		ID:     "ablation-replicates",
		Title:  "Calibration replicates vs. threshold stability",
		XLabel: "Monte-Carlo replicates",
		YLabel: "epsilon",
	}
	meanSeries := Series{Name: "epsilon mean"}
	spreadSeries := Series{Name: "epsilon spread (P95-P05)"}
	for _, reps := range p.replicateCounts {
		eps := make([]float64, p.resamples)
		for i := range eps {
			v, err := stats.CalibrateL1(windowSize, windows, pHat, stats.CalibrationConfig{
				Seed:       seed + uint64(i)*7919 + uint64(reps),
				Replicates: reps,
			})
			if err != nil {
				return nil, err
			}
			eps[i] = v
		}
		summary, err := stats.Describe(eps)
		if err != nil {
			return nil, err
		}
		meanSeries.Points = append(meanSeries.Points, Point{X: float64(reps), Y: summary.Mean})
		spreadSeries.Points = append(spreadSeries.Points, Point{X: float64(reps), Y: summary.P95 - summary.P05})
	}
	res.Series = append(res.Series, meanSeries, spreadSeries)
	return res, nil
}
