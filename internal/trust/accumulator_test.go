package trust

import (
	"errors"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// accumulatorFuncs returns every built-in trust function; all implement
// TrackerFunc and therefore support incremental accumulation.
func accumulatorFuncs(t *testing.T) []Func {
	t.Helper()
	w, err := NewWeighted(0.5)
	if err != nil {
		t.Fatalf("NewWeighted: %v", err)
	}
	return []Func{Average{}, w, Beta{}}
}

// TestAccumulatorMatchesEvaluate checks Value against Evaluate at every
// prefix of a random history, for every built-in function. The equality is
// exact: the tracker consumes the same outcomes in the same order, so the
// floating-point results must be bit-identical.
func TestAccumulatorMatchesEvaluate(t *testing.T) {
	rng := stats.NewRNG(99)
	h := feedback.NewHistory("srv")
	outcomes := make([]bool, 400)
	for i := range outcomes {
		outcomes[i] = rng.Float64() < 0.8
	}
	for _, fn := range accumulatorFuncs(t) {
		acc, ok := NewAccumulator(fn)
		if !ok {
			t.Fatalf("%s: no accumulator", fn.Name())
		}
		if acc.Name() != fn.Name() {
			t.Fatalf("accumulator name %q != func name %q", acc.Name(), fn.Name())
		}
		if _, err := acc.Value(); !errors.Is(err, ErrEmptyHistory) {
			t.Fatalf("%s: empty accumulator error = %v, want ErrEmptyHistory", fn.Name(), err)
		}
		h := feedback.NewHistory(h.Server())
		for i, good := range outcomes {
			if err := h.AppendOutcome("client", good, time.Unix(int64(i)+1, 0)); err != nil {
				t.Fatalf("append: %v", err)
			}
			acc.Update(good)
			got, err := acc.Value()
			if err != nil {
				t.Fatalf("%s: Value at n=%d: %v", fn.Name(), i+1, err)
			}
			want, err := fn.Evaluate(h)
			if err != nil {
				t.Fatalf("%s: Evaluate at n=%d: %v", fn.Name(), i+1, err)
			}
			if got != want {
				t.Fatalf("%s at n=%d: incremental %v != batch %v", fn.Name(), i+1, got, want)
			}
			n, goodN := acc.Counts()
			if n != h.Len() || goodN != h.GoodCount() {
				t.Fatalf("%s at n=%d: counts (%d, %d) != history (%d, %d)",
					fn.Name(), i+1, n, goodN, h.Len(), h.GoodCount())
			}
		}
		// A clone keeps its value and counts while the original moves on.
		clone := acc.Clone()
		want, _ := acc.Value()
		acc.Update(false)
		if got, _ := clone.Value(); got != want {
			t.Fatalf("%s: clone's value moved %v -> %v", fn.Name(), want, got)
		}
		if n, good := clone.Counts(); n != h.Len() || good != h.GoodCount() {
			t.Fatalf("%s: clone's counts moved to (%d, %d)", fn.Name(), n, good)
		}
	}
}

// nonTrackerFunc is a Func without a tracker, for the unsupported path.
type nonTrackerFunc struct{}

func (nonTrackerFunc) Name() string { return "non-tracker" }
func (nonTrackerFunc) Evaluate(h *feedback.History) (float64, error) {
	return 0.5, nil
}

func TestAccumulatorUnsupportedFunc(t *testing.T) {
	if acc, ok := NewAccumulator(nonTrackerFunc{}); ok || acc != nil {
		t.Fatalf("NewAccumulator on a non-TrackerFunc should report false")
	}
}
