package core

import (
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// TestServerAccumulatorMatchesAssess holds the deprecated shim to
// TwoPhase.Accept at every prefix, across testers, trust functions and
// short-history policies: its records are a history, and it asks the
// assessor of that history.
func TestServerAccumulatorMatchesAssess(t *testing.T) {
	cal := stats.NewCalibrator(stats.CalibrationConfig{Replicates: 120, Seed: 5}, 0)
	cfg := behavior.Config{Calibrator: cal, FamilywiseCorrection: true}
	multi, err := behavior.NewMulti(cfg)
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	collMulti, err := behavior.NewCollusionMulti(cfg)
	if err != nil {
		t.Fatalf("NewCollusionMulti: %v", err)
	}
	weighted, err := trust.NewWeighted(0.5)
	if err != nil {
		t.Fatalf("NewWeighted: %v", err)
	}
	testers := map[string]behavior.Tester{"multi": multi, "collusion-multi": collMulti, "none": nil}
	funcs := map[string]trust.Func{"average": trust.Average{}, "weighted": weighted, "beta": trust.Beta{}}
	policies := []ShortHistoryPolicy{RejectShort, AllowShort}

	full := genHistory(t, "srv", 130, 0.9, 6, stats.NewRNG(31))
	for testerName, tester := range testers {
		for fnName, fn := range funcs {
			for _, policy := range policies {
				tp, err := NewTwoPhase(tester, fn, WithShortHistoryPolicy(policy))
				if err != nil {
					t.Fatalf("NewTwoPhase: %v", err)
				}
				sa, err := tp.NewServerAccumulator(full.Server())
				if err != nil {
					t.Fatalf("NewServerAccumulator: %v", err)
				}
				label := testerName + "+" + fnName + "/" + policy.String()
				prefix := feedback.NewHistory(full.Server())
				for i := 0; i <= full.Len(); i++ {
					if i > 0 {
						rec := full.At(i - 1)
						sa.Append(rec)
						if err := prefix.Append(rec); err != nil {
							t.Fatalf("append: %v", err)
						}
					}
					gotOK, gotA, gotErr := sa.Accept(0.7)
					wantOK, wantA, wantErr := tp.Accept(prefix, 0.7)
					requireSameAssessment(t, label, i, gotA, gotErr, wantA, wantErr)
					if gotOK != wantOK {
						t.Fatalf("%s at n=%d: accept %v != batch %v", label, i, gotOK, wantOK)
					}
				}
			}
		}
	}
}

func requireSameAssessment(t *testing.T, label string, n int, got Assessment, gotErr error, want Assessment, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s at n=%d: error mismatch: shim=%v batch=%v", label, n, gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s at n=%d: error text mismatch:\nshim:  %v\nbatch: %v", label, n, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s at n=%d: assessment mismatch:\nshim:  %+v\nbatch: %+v", label, n, got, want)
	}
}

// genHistory builds a Bernoulli(p) history over a small client pool (the
// attack package has richer generators, but importing it here would cycle).
func genHistory(t *testing.T, server feedback.EntityID, n int, p float64, clients int, rng *stats.RNG) *feedback.History {
	t.Helper()
	h := feedback.NewHistory(server)
	for i := 0; i < n; i++ {
		client := feedback.EntityID(rune('a' + rng.Intn(clients)))
		if err := h.AppendOutcome(client, rng.Float64() < p, time.Unix(int64(i)+1, 0)); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	return h
}

// plainFunc is a trust function of this package's tests alone.
type plainFunc struct{}

func (plainFunc) Name() string                                  { return "plain" }
func (plainFunc) Evaluate(h *feedback.History) (float64, error) { return 0.5, nil }

// TestServerAccumulatorUnsupported: an assessor whose trust function is
// none of package trust's gets a shim too, which answers as
// TwoPhase.Accept.
func TestServerAccumulatorUnsupported(t *testing.T) {
	tp, err := NewTwoPhase(nil, plainFunc{})
	if err != nil {
		t.Fatalf("NewTwoPhase: %v", err)
	}
	sa, err := tp.NewServerAccumulator("srv")
	if err != nil {
		t.Fatalf("NewServerAccumulator: %v", err)
	}
	h := genHistory(t, "srv", 3, 0.5, 2, stats.NewRNG(1))
	for i := 0; i < h.Len(); i++ {
		sa.Append(h.At(i))
	}
	gotOK, got, gotErr := sa.Accept(0.5)
	wantOK, want, wantErr := tp.Accept(h, 0.5)
	requireSameAssessment(t, "plain", h.Len(), got, gotErr, want, wantErr)
	if gotOK != wantOK || !gotOK {
		t.Fatalf("accept %v, TwoPhase.Accept %v", gotOK, wantOK)
	}
}
