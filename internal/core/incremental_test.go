package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// TestServerAccumulatorMatchesAssess checks the incremental assessment
// against TwoPhase.Assess/Accept at every prefix, across testers, trust
// functions and short-history policies. Equality is exact (bit-identical
// floats): both paths run the same arithmetic over the same inputs.
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
				if !tp.SupportsIncremental() {
					t.Fatalf("%s+%s: SupportsIncremental = false", testerName, fnName)
				}
				sa, err := tp.NewServerAccumulator(full.Server())
				if err != nil {
					t.Fatalf("NewServerAccumulator: %v", err)
				}
				label := testerName + "+" + fnName + "/" + policy.String()
				prefix := feedback.NewHistory(full.Server())

				// Empty state first: both paths must fail identically.
				gotA, gotErr := sa.Assess()
				wantA, wantErr := tp.Assess(prefix)
				requireSameAssessment(t, label, 0, gotA, gotErr, wantA, wantErr)

				for i := 0; i < full.Len(); i++ {
					rec := full.At(i)
					sa.Append(rec)
					if err := prefix.Append(rec); err != nil {
						t.Fatalf("append: %v", err)
					}
					gotOK, gotA, gotErr := sa.Accept(0.7)
					wantOK, wantA, wantErr := tp.Accept(prefix, 0.7)
					requireSameAssessment(t, label, i+1, gotA, gotErr, wantA, wantErr)
					if gotOK != wantOK {
						t.Fatalf("%s at n=%d: accept %v != batch %v", label, i+1, gotOK, wantOK)
					}
				}
				if sa.Len() != full.Len() {
					t.Fatalf("%s: Len %d != %d", label, sa.Len(), full.Len())
				}
			}
		}
	}
}

// TestServerAccumulatorClone grows seeded random histories, clones their
// accumulators at random points and lets the copies diverge, for every tester
// mode, the nil tester and every built-in trust function. After each append,
// every copy's Assess must DeepEqual TwoPhase.Assess over a history of
// exactly its own records — so an append to one copy never reaches another.
func TestServerAccumulatorClone(t *testing.T) {
	cal := stats.NewCalibrator(stats.CalibrationConfig{Replicates: 120, Seed: 6}, 0)
	cfg := behavior.Config{WindowSize: 5, MinWindows: 2, Stride: 5, Calibrator: cal}
	must := func(tester behavior.Tester, err error) behavior.Tester {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return tester
	}
	testers := map[string]behavior.Tester{
		"single":          must(behavior.NewSingle(cfg)),
		"multi":           must(behavior.NewMulti(cfg)),
		"multi-naive":     must(behavior.NewMultiNaive(cfg)),
		"collusion":       must(behavior.NewCollusion(cfg)),
		"collusion-multi": must(behavior.NewCollusionMulti(cfg)),
		"none":            nil,
	}
	weighted, err := trust.NewWeighted(0.5)
	if err != nil {
		t.Fatal(err)
	}
	funcs := []trust.Func{trust.Average{}, weighted, trust.Beta{}}

	type copyOf struct {
		sa *ServerAccumulator
		h  *feedback.History
	}
	for testerName, tester := range testers {
		for fi, fn := range funcs {
			tp, err := NewTwoPhase(tester, fn)
			if err != nil {
				t.Fatal(err)
			}
			sa, err := tp.NewServerAccumulator("srv")
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(uint64(100 + fi))
			copies := []copyOf{{sa, feedback.NewHistory("srv")}}
			for i := 0; i < 150; i++ {
				if len(copies) < 4 && rng.Intn(10) == 0 {
					from := copies[rng.Intn(len(copies))]
					copies = append(copies, copyOf{from.sa.Clone(), from.h.Clone()})
				}
				c := copies[rng.Intn(len(copies))]
				client := feedback.EntityID(rune('a' + rng.Intn(6)))
				if err := c.h.AppendOutcome(client, rng.Float64() < 0.8, time.Unix(int64(i)+1, 0)); err != nil {
					t.Fatal(err)
				}
				c.sa.Append(c.h.At(c.h.Len() - 1))
				for k, c := range copies {
					got, gotErr := c.sa.Assess()
					want, wantErr := tp.Assess(c.h)
					requireSameAssessment(t, fmt.Sprintf("%s copy %d", tp.Name(), k), c.h.Len(), got, gotErr, want, wantErr)
				}
			}
			if len(copies) < 2 {
				t.Fatalf("%s+%s: no clone taken", testerName, fn.Name())
			}
		}
	}
}

func requireSameAssessment(t *testing.T, label string, n int, got Assessment, gotErr error, want Assessment, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s at n=%d: error mismatch: incremental=%v batch=%v", label, n, gotErr, wantErr)
	}
	if gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s at n=%d: error text mismatch:\nincremental: %v\nbatch:       %v", label, n, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s at n=%d: assessment mismatch:\nincremental: %+v\nbatch:       %+v", label, n, got, want)
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

// plainFunc is a trust function without a tracker.
type plainFunc struct{}

func (plainFunc) Name() string                                  { return "plain" }
func (plainFunc) Evaluate(h *feedback.History) (float64, error) { return 0.5, nil }

func TestServerAccumulatorUnsupported(t *testing.T) {
	tp, err := NewTwoPhase(nil, plainFunc{})
	if err != nil {
		t.Fatalf("NewTwoPhase: %v", err)
	}
	if tp.SupportsIncremental() {
		t.Fatal("SupportsIncremental should be false for a non-tracker trust function")
	}
	if _, err := tp.NewServerAccumulator("srv"); err == nil {
		t.Fatal("NewServerAccumulator should fail for a non-tracker trust function")
	}
}
