package experiment

import (
	"errors"
	"fmt"
	"time"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// cusumParams parameterises the change-detection ablation: how fast the
// online CUSUM detector and the windowed multi-test flag a hibernating turn,
// as a function of the post-turn quality.
type cusumParams struct {
	postQualities []float64 // post-turn success probabilities
	trials        int       // attackers per point
	replicates    int       // Monte-Carlo replicates per calibrated ε
}

func cusumScale(quick bool) cusumParams {
	p := cusumParams{postQualities: []float64{0, 0.2, 0.4, 0.6}, trials: 100, replicates: 500}
	if quick {
		p.postQualities, p.trials, p.replicates = []float64{0, 0.4}, 20, 200
	}
	return p
}

// runAblationCUSUM measures the mean detection delay (transactions after the
// behaviour change; undetected runs count as maxDelay) of the CUSUM detector
// versus the windowed multi-test. Each attacker is honest at prepTrust for
// 400 transactions, then turns.
func runAblationCUSUM(p cusumParams, seed uint64) (*Result, error) {
	const prep, maxDelay = 400, 300
	cal := newCalibrator(seed+7000, p.replicates)
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: cal})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "ablation-cusum",
		Title:  "Detection delay after a hibernating turn: CUSUM vs. multi-testing",
		XLabel: "post-turn quality",
		YLabel: fmt.Sprintf("mean detection delay (transactions, cap %d)", maxDelay),
	}
	cusumSeries := Series{Name: "cusum(p1=0.5,h=12)"}
	multiSeries := Series{Name: "multi-testing (per transaction)"}
	rng := stats.NewRNG(seed)
	for _, q := range p.postQualities {
		cusumTotal, multiTotal := 0, 0
		for trial := 0; trial < p.trials; trial++ {
			h, err := attack.PrepareHistory("a", prep, prepTrust, 50, rng)
			if err != nil {
				return nil, err
			}
			detector, err := behavior.NewCUSUM(prepTrust, 0.5, 12)
			if err != nil {
				return nil, err
			}
			acc, _ := behavior.NewAccumulatorFor(multi) // every built-in tester has one
			for i := 0; i < h.Len(); i++ {
				acc.Append(h.At(i))
				detector.Observe(h.At(i).Good())
			}
			if detector.Alarmed() {
				// False alarm during prep: restart the detector for a fair
				// post-turn measurement.
				detector.Reset()
			}
			cusumDelay, multiDelay := maxDelay, maxDelay
			for d := 1; d <= maxDelay; d++ {
				good := rng.Bernoulli(q)
				if err := h.AppendOutcome("v", good, logical(prep+d)); err != nil {
					return nil, err
				}
				acc.Append(h.At(h.Len() - 1))
				if cusumDelay == maxDelay && detector.Observe(good) {
					cusumDelay = d
				}
				if multiDelay == maxDelay {
					v, err := acc.Test()
					if err != nil && !errors.Is(err, behavior.ErrInsufficientHistory) {
						return nil, err
					}
					if err == nil && !v.Honest {
						multiDelay = d
					}
				}
				if cusumDelay < maxDelay && multiDelay < maxDelay {
					break
				}
			}
			cusumTotal += cusumDelay
			multiTotal += multiDelay
		}
		cusumSeries.Points = append(cusumSeries.Points, Point{
			X: q, Y: float64(cusumTotal) / float64(p.trials)})
		multiSeries.Points = append(multiSeries.Points, Point{
			X: q, Y: float64(multiTotal) / float64(p.trials)})
	}
	res.Series = append(res.Series, cusumSeries, multiSeries)
	res.Notes = append(res.Notes,
		"with end-aligned windows the multi-test also reacts per transaction and detects slightly faster; CUSUM reads one statistic per transaction, the multi-test's accumulator one window histogram per suffix")
	return res, nil
}

// lambdaParams parameterises the λ-sensitivity ablation of the weighted
// trust function: attacker cost as λ varies, with and without Scheme-2
// behaviour testing.
type lambdaParams struct {
	lambdas    []float64 // the λ values to sweep
	goalBad    int       // M
	trials     int       // seeded runs averaged per point
	replicates int       // Monte-Carlo replicates per calibrated ε
}

func lambdaScale(quick bool) lambdaParams {
	p := lambdaParams{lambdas: []float64{0.1, 0.3, 0.5, 0.7, 0.9}, goalBad: 20, trials: 3, replicates: 500}
	if quick {
		p.lambdas, p.goalBad, p.trials, p.replicates = []float64{0.1, 0.5, 0.9}, 10, 1, 200
	}
	return p
}

// runAblationLambda measures the strategic attacker's cost against the
// weighted function across λ, bare and with Scheme-2 testing, after a
// 400-transaction preparation. The paper fixes λ = 0.5; the sweep shows how
// much of Fig. 4's baseline cost comes from that choice.
func runAblationLambda(p lambdaParams, seed uint64) (*Result, error) {
	const prep = 400
	cal := newCalibrator(seed+8000, p.replicates)
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: cal})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "ablation-lambda",
		Title:  "Weighted-function λ sweep: attacker cost, bare vs. scheme2",
		XLabel: "lambda",
		YLabel: fmt.Sprintf("good transactions to launch %d attacks", p.goalBad),
	}
	bare := Series{Name: "weighted"}
	tested := Series{Name: "scheme2+weighted"}
	for _, lambda := range p.lambdas {
		fn, err := trust.NewWeighted(lambda)
		if err != nil {
			return nil, err
		}
		for _, tc := range []struct {
			series *Series
			tester behavior.Tester
		}{{&bare, nil}, {&tested, multi}} {
			assessor, err := core.NewTwoPhase(tc.tester, fn)
			if err != nil {
				return nil, err
			}
			total := 0
			for trial := 0; trial < p.trials; trial++ {
				rng := stats.NewRNG(seed ^ (uint64(trial+1) * 7919))
				h, err := attack.PrepareHistory("a", prep, prepTrust, 50, rng)
				if err != nil {
					return nil, err
				}
				s := &attack.Strategic{
					Assessor: assessor, Threshold: trustThreshold,
					GoalBad: p.goalBad, MaxSteps: 500 * p.goalBad,
				}
				cost, err := s.Run(h)
				if err != nil && !errors.Is(err, attack.ErrGoalUnreachable) {
					return nil, err
				}
				total += cost.Good
			}
			tc.series.Points = append(tc.series.Points, Point{
				X: lambda, Y: float64(total) / float64(p.trials)})
		}
	}
	res.Series = append(res.Series, bare, tested)
	return res, nil
}

// logical maps a transaction index to a timestamp; simulations care about
// order only.
func logical(i int) time.Time { return time.Unix(int64(i), 0).UTC() }
