package core

import (
	"fmt"

	"honestplayer/internal/behavior"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// Spec names a two-phase assessor the way the command-line tools spell it.
// Two assessors built from equal Specs return the same verdicts on the same
// history: the calibration stream is a function of Seed (ADR 0007).
type Spec struct {
	// Scheme is the phase-1 tester: none, single, multi, collusion or
	// collusion-multi.
	Scheme string
	// Trust is the phase-2 function: average, weighted or beta.
	Trust string
	// Lambda is the weighted function's λ.
	Lambda float64
	// Window is the transaction window m (0 = behavior.DefaultWindowSize).
	Window int
	// Seed seeds the threshold calibration.
	Seed uint64
}

// DefaultSpec is the assessor trustd serves when no flag says otherwise.
var DefaultSpec = Spec{Scheme: "multi", Trust: "average", Lambda: 0.5, Window: behavior.DefaultWindowSize, Seed: 1}

// Build returns the assessor s names.
func (s Spec) Build() (*TwoPhase, error) {
	var fn trust.Func
	switch s.Trust {
	case "average":
		fn = trust.Average{}
	case "weighted":
		w, err := trust.NewWeighted(s.Lambda)
		if err != nil {
			return nil, err
		}
		fn = w
	case "beta":
		fn = trust.Beta{}
	default:
		return nil, fmt.Errorf("unknown trust function %q", s.Trust)
	}
	cfg := behavior.Config{
		WindowSize: s.Window,
		Calibrator: stats.NewCalibrator(stats.CalibrationConfig{Seed: s.Seed}, 0),
	}
	var (
		tester behavior.Tester
		err    error
	)
	switch s.Scheme {
	case "none":
	case "single":
		tester, err = behavior.NewSingle(cfg)
	case "multi":
		tester, err = behavior.NewMulti(cfg)
	case "collusion":
		tester, err = behavior.NewCollusion(cfg)
	case "collusion-multi":
		tester, err = behavior.NewCollusionMulti(cfg)
	default:
		return nil, fmt.Errorf("unknown scheme %q", s.Scheme)
	}
	if err != nil {
		return nil, err
	}
	return NewTwoPhase(tester, fn)
}
