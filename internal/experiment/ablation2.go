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

// AblationCUSUMConfig parameterises the change-detection ablation: how fast
// the online CUSUM detector and the windowed multi-test flag a hibernating
// turn, as a function of the post-turn quality.
type AblationCUSUMConfig struct {
	// PostQualities are the post-turn success probabilities; nil means
	// {0, 0.2, 0.4, 0.6}.
	PostQualities []float64
	// Prep is the honest prefix length; zero means 400.
	Prep int
	// PrepP is the honest quality; zero means 0.95.
	PrepP float64
	// MaxDelay bounds the measured delay; zero means 300.
	MaxDelay int
	// Trials per point; zero means 100.
	Trials int
	// Seed drives all randomness.
	Seed uint64
	// CalibrationReplicates tunes ε estimation; zero means 500.
	CalibrationReplicates int
}

func (c AblationCUSUMConfig) withDefaults() AblationCUSUMConfig {
	if c.PostQualities == nil {
		c.PostQualities = []float64{0, 0.2, 0.4, 0.6}
	}
	if c.Prep == 0 {
		c.Prep = 400
	}
	if c.PrepP == 0 {
		c.PrepP = 0.95
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 300
	}
	if c.Trials == 0 {
		c.Trials = 100
	}
	return c
}

// RunAblationCUSUM measures the mean detection delay (transactions after
// the behaviour change; undetected runs count as MaxDelay) of the CUSUM
// detector versus the windowed multi-test.
func RunAblationCUSUM(cfg AblationCUSUMConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	cal := newCalibrator(cfg.Seed+7000, cfg.CalibrationReplicates)
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: cal})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "ablation-cusum",
		Title:  "Detection delay after a hibernating turn: CUSUM vs. multi-testing",
		XLabel: "post-turn quality",
		YLabel: fmt.Sprintf("mean detection delay (transactions, cap %d)", cfg.MaxDelay),
	}
	cusumSeries := Series{Name: "cusum(p1=0.5,h=12)"}
	multiSeries := Series{Name: "multi-testing (per transaction)"}
	rng := stats.NewRNG(cfg.Seed)
	for _, q := range cfg.PostQualities {
		cusumTotal, multiTotal := 0, 0
		for trial := 0; trial < cfg.Trials; trial++ {
			h, err := attack.PrepareHistory("a", cfg.Prep, cfg.PrepP, 50, rng)
			if err != nil {
				return nil, err
			}
			detector, err := behavior.NewCUSUM(cfg.PrepP, 0.5, 12)
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
			cusumDelay, multiDelay := cfg.MaxDelay, cfg.MaxDelay
			for d := 1; d <= cfg.MaxDelay; d++ {
				good := rng.Bernoulli(q)
				if err := h.AppendOutcome("v", good, logical(cfg.Prep+d)); err != nil {
					return nil, err
				}
				acc.Append(h.At(h.Len() - 1))
				if cusumDelay == cfg.MaxDelay && detector.Observe(good) {
					cusumDelay = d
				}
				if multiDelay == cfg.MaxDelay {
					v, err := acc.Test()
					if err != nil && !errors.Is(err, behavior.ErrInsufficientHistory) {
						return nil, err
					}
					if err == nil && !v.Honest {
						multiDelay = d
					}
				}
				if cusumDelay < cfg.MaxDelay && multiDelay < cfg.MaxDelay {
					break
				}
			}
			cusumTotal += cusumDelay
			multiTotal += multiDelay
		}
		cusumSeries.Points = append(cusumSeries.Points, Point{
			X: q, Y: float64(cusumTotal) / float64(cfg.Trials)})
		multiSeries.Points = append(multiSeries.Points, Point{
			X: q, Y: float64(multiTotal) / float64(cfg.Trials)})
	}
	res.Series = append(res.Series, cusumSeries, multiSeries)
	res.Notes = append(res.Notes,
		"with end-aligned windows the multi-test also reacts per transaction and detects slightly faster; CUSUM reads one statistic per transaction, the multi-test's accumulator one window histogram per suffix")
	return res, nil
}

// AblationLambdaConfig parameterises the λ-sensitivity ablation of the
// weighted trust function: attacker cost as λ varies, with and without
// Scheme-2 behaviour testing.
type AblationLambdaConfig struct {
	// Lambdas to sweep; nil means {0.1, 0.3, 0.5, 0.7, 0.9}.
	Lambdas []float64
	// Prep is the preparation length; zero means 400.
	Prep int
	// GoalBad is M; zero means 20.
	GoalBad int
	// Trials per point; zero means 3.
	Trials int
	// Seed drives all randomness.
	Seed uint64
	// CalibrationReplicates tunes ε estimation; zero means 500.
	CalibrationReplicates int
}

func (c AblationLambdaConfig) withDefaults() AblationLambdaConfig {
	if c.Lambdas == nil {
		c.Lambdas = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	}
	if c.Prep == 0 {
		c.Prep = 400
	}
	if c.GoalBad == 0 {
		c.GoalBad = DefaultGoalBad
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	return c
}

// RunAblationLambda measures the strategic attacker's cost against the
// weighted function across λ, bare and with Scheme-2 testing. The paper
// fixes λ = 0.5; the sweep shows how much of Fig. 4's baseline cost comes
// from that choice.
func RunAblationLambda(cfg AblationLambdaConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	cal := newCalibrator(cfg.Seed+8000, cfg.CalibrationReplicates)
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: cal})
	if err != nil {
		return nil, err
	}
	res := &Result{
		ID:     "ablation-lambda",
		Title:  "Weighted-function λ sweep: attacker cost, bare vs. scheme2",
		XLabel: "lambda",
		YLabel: fmt.Sprintf("good transactions to launch %d attacks", cfg.GoalBad),
	}
	bare := Series{Name: "weighted"}
	tested := Series{Name: "scheme2+weighted"}
	for _, lambda := range cfg.Lambdas {
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
			for trial := 0; trial < cfg.Trials; trial++ {
				rng := stats.NewRNG(cfg.Seed ^ (uint64(trial+1) * 7919))
				h, err := attack.PrepareHistory("a", cfg.Prep, DefaultPrepP, 50, rng)
				if err != nil {
					return nil, err
				}
				s := &attack.Strategic{
					Assessor: assessor, Threshold: DefaultThreshold,
					GoalBad: cfg.GoalBad, MaxSteps: 500 * cfg.GoalBad,
				}
				cost, err := s.Run(h)
				if err != nil && !errors.Is(err, attack.ErrGoalUnreachable) {
					return nil, err
				}
				total += cost.Good
			}
			tc.series.Points = append(tc.series.Points, Point{
				X: lambda, Y: float64(total) / float64(cfg.Trials)})
		}
	}
	res.Series = append(res.Series, bare, tested)
	return res, nil
}

// logical maps a transaction index to a timestamp; simulations care about
// order only.
func logical(i int) time.Time { return time.Unix(int64(i), 0).UTC() }
