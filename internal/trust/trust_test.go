package trust

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"

	"honestplayer/internal/feedback"
)

func historyOf(t *testing.T, outcomes []bool) *feedback.History {
	t.Helper()
	h := feedback.NewHistory("s")
	for i, g := range outcomes {
		if err := h.AppendOutcome("c", g, time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestAverageEvaluate(t *testing.T) {
	tests := []struct {
		name     string
		outcomes []bool
		want     float64
	}{
		{"all good", []bool{true, true}, 1},
		{"all bad", []bool{false, false}, 0},
		{"mixed", []bool{true, false, true, true}, 0.75},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Average{}.Evaluate(historyOf(t, tt.outcomes))
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Fatalf("Evaluate = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestEmptyHistoryErrors(t *testing.T) {
	empty := feedback.NewHistory("s")
	w, _ := NewWeighted(0.5)
	for _, f := range []Func{Average{}, w, Beta{}} {
		if _, err := f.Evaluate(empty); !errors.Is(err, ErrEmptyHistory) {
			t.Errorf("%s on empty history: %v", f.Name(), err)
		}
	}
}

func TestNewWeightedValidation(t *testing.T) {
	for _, bad := range []float64{0, -1, 1.5, math.NaN()} {
		if _, err := NewWeighted(bad); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("NewWeighted(%v) = %v", bad, err)
		}
	}
	if _, err := NewWeighted(1); err != nil {
		t.Errorf("NewWeighted(1) = %v", err)
	}
}

func TestWeightedEvaluateKnown(t *testing.T) {
	w, err := NewWeighted(0.5)
	if err != nil {
		t.Fatal(err)
	}
	// R0=0.5; good: 0.5*1+0.5*0.5=0.75; bad: 0.5*0+0.5*0.75=0.375.
	got, err := w.Evaluate(historyOf(t, []bool{true, false}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.375) > 1e-12 {
		t.Fatalf("weighted = %v, want 0.375", got)
	}
}

func TestWeightedRecencyBias(t *testing.T) {
	w, _ := NewWeighted(0.5)
	// Same counts, different order: recent-bad must score lower.
	recentBad, err := w.Evaluate(historyOf(t, []bool{true, true, false}))
	if err != nil {
		t.Fatal(err)
	}
	recentGood, err := w.Evaluate(historyOf(t, []bool{false, true, true}))
	if err != nil {
		t.Fatal(err)
	}
	if recentBad >= recentGood {
		t.Fatalf("recency bias violated: %v >= %v", recentBad, recentGood)
	}
}

func TestBetaEvaluate(t *testing.T) {
	got, err := Beta{}.Evaluate(historyOf(t, []bool{true, true, false}))
	if err != nil {
		t.Fatal(err)
	}
	if want := 3.0 / 5.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("beta = %v, want %v", got, want)
	}
}

func TestNames(t *testing.T) {
	w, _ := NewWeighted(0.5)
	for _, tc := range []struct {
		f    Func
		want string
	}{
		{Average{}, "average"},
		{w, "weighted(λ=0.5)"},
		{Beta{}, "beta"},
	} {
		if got := tc.f.Name(); got != tc.want {
			t.Errorf("Name = %q, want %q", got, tc.want)
		}
	}
}

// allTrackerFuncs enumerates every TrackerFunc for shared property tests.
func allTrackerFuncs(t *testing.T) []TrackerFunc {
	t.Helper()
	w, err := NewWeighted(0.5)
	if err != nil {
		t.Fatal(err)
	}
	return []TrackerFunc{Average{}, w, Beta{}}
}

// Property: every tracker agrees with its Func's Evaluate on random
// histories, stays within [0,1], and a clone keeps its value while the
// original moves on.
func TestTrackersMatchEvaluate(t *testing.T) {
	for _, tf := range allTrackerFuncs(t) {
		tf := tf
		t.Run(tf.Name(), func(t *testing.T) {
			f := func(raw []bool) bool {
				if len(raw) == 0 {
					return true
				}
				h := feedback.NewHistory("s")
				tr := tf.NewTracker()
				for i, g := range raw {
					if err := h.AppendOutcome("c", g, time.Unix(int64(i), 0)); err != nil {
						return false
					}
					tr.Update(g)
					v := tr.Value()
					if math.IsNaN(v) || v < 0 || v > 1 {
						return false
					}
				}
				want, err := tf.Evaluate(h)
				if err != nil {
					return false
				}
				if math.Abs(tr.Value()-want) > 1e-9 {
					return false
				}
				clone := tr.clone()
				for _, g := range raw {
					tr.Update(!g)
				}
				return math.Abs(clone.Value()-want) < 1e-9
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestTrackerValueNaNBeforeUpdate(t *testing.T) {
	for _, tf := range allTrackerFuncs(t) {
		if !math.IsNaN(tf.NewTracker().Value()) {
			t.Errorf("%s: fresh tracker Value not NaN", tf.Name())
		}
	}
}

// Paper check: with the weighted function at λ=0.5, a trust value above 0.9
// drops below 0.9 after a single bad transaction, so an attacker can never
// cheat twice in a row (§5.1).
func TestWeightedNoTwoConsecutiveAttacks(t *testing.T) {
	w, _ := NewWeighted(0.5)
	tr := w.NewTracker()
	for i := 0; i < 100; i++ {
		tr.Update(true)
	}
	if tr.Value() < 0.9 {
		t.Fatalf("long good streak value %v < 0.9", tr.Value())
	}
	tr.Update(false)
	if tr.Value() >= 0.9 {
		t.Fatalf("one bad transaction left trust at %v, expected < 0.9", tr.Value())
	}
}
