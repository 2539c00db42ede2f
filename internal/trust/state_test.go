package trust

import (
	"math"
	"testing"
)

// stateFuncs mints every built-in trust function with non-trivial parameters.
func stateFuncs(t *testing.T) map[string]Func {
	t.Helper()
	weighted, err := NewWeighted(0.3)
	if err != nil {
		t.Fatalf("NewWeighted: %v", err)
	}
	decay, err := NewTimeDecay(0.85)
	if err != nil {
		t.Fatalf("NewTimeDecay: %v", err)
	}
	window, err := NewSlidingWindow(7)
	if err != nil {
		t.Fatalf("NewSlidingWindow: %v", err)
	}
	return map[string]Func{
		"average":  Average{},
		"weighted": weighted,
		"beta":     Beta{},
		"decay":    decay,
		"window":   window,
	}
}

// outcomes is a deterministic mixed good/bad stream long enough to wrap the
// sliding window several times.
func stateOutcomes(n int) []bool {
	out := make([]bool, n)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = x%10 < 7
	}
	return out
}

// TestAccumulatorStateRoundTrip freezes each accumulator at every prefix
// length, restores into a fresh one, and checks the restored accumulator is
// bit-identical now and stays identical as both keep consuming outcomes.
func TestAccumulatorStateRoundTrip(t *testing.T) {
	outcomes := stateOutcomes(40)
	for name, fn := range stateFuncs(t) {
		t.Run(name, func(t *testing.T) {
			for cut := 0; cut <= len(outcomes); cut++ {
				orig, ok := NewAccumulator(fn)
				if !ok {
					t.Fatalf("NewAccumulator(%s): no tracker", name)
				}
				for _, g := range outcomes[:cut] {
					orig.Update(g)
				}
				blob, ok := orig.AppendState([]byte{0xAA}) // prefix survives
				if !ok {
					t.Fatalf("AppendState: not serializable")
				}
				restored, _ := NewAccumulator(fn)
				rest, err := restored.RestoreState(blob[1:])
				if err != nil {
					t.Fatalf("cut %d: RestoreState: %v", cut, err)
				}
				if len(rest) != 0 {
					t.Fatalf("cut %d: %d bytes left over", cut, len(rest))
				}
				compareAccumulators(t, cut, orig, restored)
				// Keep feeding both: restored state must evolve identically,
				// which exercises window ring phase and EWMA continuation.
				for i, g := range outcomes[cut:] {
					orig.Update(g)
					restored.Update(g)
					compareAccumulators(t, cut+i+1, orig, restored)
				}
			}
		})
	}
}

func compareAccumulators(t *testing.T, step int, a, b *Accumulator) {
	t.Helper()
	an, ag := a.Counts()
	bn, bg := b.Counts()
	if an != bn || ag != bg {
		t.Fatalf("step %d: counts (%d,%d) != (%d,%d)", step, an, ag, bn, bg)
	}
	av, aerr := a.Value()
	bv, berr := b.Value()
	if (aerr == nil) != (berr == nil) {
		t.Fatalf("step %d: value errors differ: %v vs %v", step, aerr, berr)
	}
	if aerr == nil && math.Float64bits(av) != math.Float64bits(bv) {
		t.Fatalf("step %d: values differ: %v vs %v", step, av, bv)
	}
}

// TestAccumulatorStateRejectsCorruption checks that truncated or inconsistent
// blobs are rejected rather than silently restored.
func TestAccumulatorStateRejectsCorruption(t *testing.T) {
	for name, fn := range stateFuncs(t) {
		t.Run(name, func(t *testing.T) {
			orig, _ := NewAccumulator(fn)
			for _, g := range stateOutcomes(20) {
				orig.Update(g)
			}
			blob, ok := orig.AppendState(nil)
			if !ok {
				t.Fatal("AppendState: not serializable")
			}
			// The empty blob must fail.
			fresh0, _ := NewAccumulator(fn)
			if _, err := fresh0.RestoreState(nil); err == nil {
				t.Fatal("empty blob accepted")
			}
			// A truncated blob must never panic; it may only succeed when the
			// truncation happens to form a complete shorter encoding.
			for cut := 0; cut < len(blob); cut++ {
				fresh, _ := NewAccumulator(fn)
				fresh.RestoreState(blob[:cut])
			}
			// good > n must be rejected.
			bad := []byte{5, 200}
			fresh, _ := NewAccumulator(fn)
			if _, err := fresh.RestoreState(bad); err == nil {
				t.Fatal("good > n accepted")
			}
		})
	}
}

// TestWindowTrackerStateCanonical pins the windowTracker's canonical form:
// a wrapped ring and its restored head-0 layout must keep producing the same
// values — the ring phase is not observable state.
func TestWindowTrackerStateCanonical(t *testing.T) {
	fn, err := NewSlidingWindow(4)
	if err != nil {
		t.Fatal(err)
	}
	tr := fn.NewTracker().(*windowTracker)
	for _, g := range []bool{true, false, true, true, false, true, false} {
		tr.Update(g)
	}
	if tr.head == 0 {
		t.Fatal("test needs a wrapped ring")
	}
	blob := tr.AppendState(nil)
	restored := fn.NewTracker().(*windowTracker)
	if _, err := restored.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	if restored.head != 0 {
		t.Fatalf("restored head %d, want canonical 0", restored.head)
	}
	for i := 0; i < 10; i++ {
		g := i%3 == 0
		tr.Update(g)
		restored.Update(g)
		if math.Float64bits(tr.Value()) != math.Float64bits(restored.Value()) {
			t.Fatalf("step %d: %v != %v", i, tr.Value(), restored.Value())
		}
	}
}
