package experiment

import (
	"fmt"
	"time"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// perfParams parameterises the Fig. 9 performance experiment: wall-clock
// time of single- and (optimised) multi-behaviour testing on histories of
// 100 000 – 800 000 transactions, plus the naive O(n²) multi-testing
// ablation at smaller sizes.
type perfParams struct {
	historySizes []int // the x axis
	naiveSizes   []int // the x axis of the O(n²) ablation
	repeats      int   // timings per point; the minimum (steady state) is kept
	// replicates per calibrated ε; the threshold cache is pre-warmed
	// outside the timed region.
	replicates int
}

func perfScale(quick bool) perfParams {
	p := perfParams{naiveSizes: []int{10000, 20000, 30000, 40000}, repeats: 3, replicates: 300}
	for n := 100000; n <= 800000; n += 100000 {
		p.historySizes = append(p.historySizes, n)
	}
	if quick {
		p.historySizes, p.naiveSizes, p.repeats = []int{50000, 100000, 200000}, []int{5000, 10000}, 1
	}
	return p
}

// runFig9 regenerates Fig. 9: behaviour-testing running time vs. initial
// history size. The paper's claim is the complexity shape — O(n) for the
// single test and for multi-testing with the intermediate-statistics
// optimisation — which is hardware-independent even though the absolute
// milliseconds are not.
func runFig9(p perfParams, seed uint64) (*Result, error) {
	cal := newCalibrator(seed+4000, p.replicates)
	bcfg := behavior.Config{WindowSize: windowSize, Calibrator: cal}
	single, err := behavior.NewSingle(bcfg)
	if err != nil {
		return nil, err
	}
	multi, err := behavior.NewMulti(bcfg)
	if err != nil {
		return nil, err
	}
	naive, err := behavior.NewMultiNaive(bcfg)
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:     "fig9",
		Title:  "Time cost vs. initial history size",
		XLabel: "initial history size",
		YLabel: "running time (ms)",
	}

	rng := stats.NewRNG(seed)
	timed := func(tester behavior.Tester, h *feedback.History) (float64, error) {
		// Warm the threshold cache outside the timed region: Fig. 9
		// measures testing time, not one-off calibration.
		if _, err := tester.Test(h); err != nil {
			return 0, err
		}
		best := time.Duration(0)
		for r := 0; r < p.repeats; r++ {
			start := time.Now()
			if _, err := tester.Test(h); err != nil {
				return 0, err
			}
			d := time.Since(start)
			if r == 0 || d < best {
				best = d
			}
		}
		return float64(best.Microseconds()) / 1000.0, nil
	}

	singleSeries := Series{Name: "single testing"}
	multiSeries := Series{Name: "multi testing (optimised)"}
	for _, n := range p.historySizes {
		h, err := attack.GenHonest("server", n, 0.9, 1000, rng)
		if err != nil {
			return nil, err
		}
		ms, err := timed(single, h)
		if err != nil {
			return nil, fmt.Errorf("single n=%d: %w", n, err)
		}
		singleSeries.Points = append(singleSeries.Points, Point{X: float64(n), Y: ms})
		ms, err = timed(multi, h)
		if err != nil {
			return nil, fmt.Errorf("multi n=%d: %w", n, err)
		}
		multiSeries.Points = append(multiSeries.Points, Point{X: float64(n), Y: ms})
	}
	res.Series = append(res.Series, singleSeries, multiSeries)

	naiveSeries := Series{Name: "multi testing (naive O(n^2))"}
	for _, n := range p.naiveSizes {
		h, err := attack.GenHonest("server", n, 0.9, 1000, rng)
		if err != nil {
			return nil, err
		}
		ms, err := timed(naive, h)
		if err != nil {
			return nil, fmt.Errorf("naive n=%d: %w", n, err)
		}
		naiveSeries.Points = append(naiveSeries.Points, Point{X: float64(n), Y: ms})
	}
	res.Series = append(res.Series, naiveSeries)
	res.Notes = append(res.Notes,
		"naive multi-testing is run only at smaller sizes; its quadratic growth makes 800k-transaction histories impractical, which is the point of the optimisation")
	return res, nil
}
