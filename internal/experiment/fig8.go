package experiment

import (
	"honestplayer/internal/stats"
)

// thresholdParams parameterises the Fig. 8 experiment: how the calibrated
// 95 %-confidence distribution-distance threshold ε shrinks (converges) as
// the initial history size grows.
type thresholdParams struct {
	historySizes []int     // the x axis, in transactions
	pHats        []float64 // estimated trustworthiness values to calibrate at
	replicates   int       // Monte-Carlo sample sets per ε
}

func thresholdScale(quick bool) thresholdParams {
	// 1000 replicates is the paper's "reasonably large" number.
	p := thresholdParams{pHats: []float64{0.90, 0.95}, replicates: stats.DefaultReplicates}
	for n := 100; n <= 2000; n += 100 {
		p.historySizes = append(p.historySizes, n)
	}
	if quick {
		p.historySizes, p.replicates = []int{100, 200, 400, 800, 1600}, 300
	}
	return p
}

// runFig8 regenerates Fig. 8: distribution distance (the 95 % threshold ε)
// vs. initial history size, showing the fast convergence the paper reports.
func runFig8(p thresholdParams, seed uint64) (*Result, error) {
	res := &Result{
		ID:     "fig8",
		Title:  "Distribution distance vs. initial history size",
		XLabel: "initial history size",
		YLabel: "95% distance threshold (epsilon)",
	}
	for _, pHat := range p.pHats {
		series := Series{Name: formatFloat(pHat)}
		for _, n := range p.historySizes {
			windows := n / windowSize
			if windows < 1 {
				continue
			}
			eps, err := stats.CalibrateL1(windowSize, windows, pHat, stats.CalibrationConfig{
				Seed:       seed,
				Replicates: p.replicates,
			})
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, Point{X: float64(n), Y: eps})
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}
