package behavior_test

// Round-trip tests for accumulator state serialization: a restored
// accumulator must be observationally identical to the original — same
// Test() verdicts and errors, bit for bit, immediately after restore and as
// both keep consuming feedback.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// stateHistories picks two histories that exercise both the phase modes
// (mixed outcomes across window alignments) and the collusion modes
// (multiple issuers with different record counts).
func stateHistories(t *testing.T) map[string]*feedback.History {
	t.Helper()
	out := make(map[string]*feedback.History)
	h, err := attack.GenPeriodic("srv-periodic", 90, 15, 0.5, stats.NewRNG(21))
	if err != nil {
		t.Fatal(err)
	}
	out["periodic"] = h
	h, err = attack.PrepareByColluders("srv-colluded", 80, 0.9,
		[]feedback.EntityID{"col-a", "col-b", "col-c"}, stats.NewRNG(22))
	if err != nil {
		t.Fatal(err)
	}
	out["colluders"] = h
	return out
}

func TestAccumulatorStateRoundTrip(t *testing.T) {
	cfg := behavior.Config{WindowSize: 5, MinWindows: 2, Stride: 10,
		FamilywiseCorrection: true, Calibrator: fastCalibrator(31)}
	for testerName, tester := range diffTesters(t, cfg) {
		for histName, h := range stateHistories(t) {
			t.Run(testerName+"/"+histName, func(t *testing.T) {
				for cut := 0; cut <= h.Len(); cut += 7 {
					orig, ok := behavior.NewAccumulatorFor(tester)
					if !ok {
						t.Fatal("NewAccumulatorFor failed")
					}
					for i := 0; i < cut; i++ {
						orig.Append(h.At(i))
					}
					blob := orig.AppendState(nil)
					restored, _ := behavior.NewAccumulatorFor(tester)
					if err := restored.RestoreState(blob); err != nil {
						t.Fatalf("cut %d: RestoreState: %v", cut, err)
					}
					requireSameTest(t, cut, orig, restored)
					// The restored state must re-encode byte-identically:
					// serialization is canonical.
					if blob2 := restored.AppendState(nil); !reflect.DeepEqual(blob, blob2) {
						t.Fatalf("cut %d: re-encoded state differs", cut)
					}
					for i := cut; i < h.Len(); i++ {
						orig.Append(h.At(i))
						restored.Append(h.At(i))
					}
					requireSameTest(t, h.Len(), orig, restored)
				}
			})
		}
	}
}

func requireSameTest(t *testing.T, n int, a, b *behavior.Accumulator) {
	t.Helper()
	if a.Len() != b.Len() || a.GoodCount() != b.GoodCount() {
		t.Fatalf("n=%d: counts differ: (%d,%d) vs (%d,%d)",
			n, a.Len(), a.GoodCount(), b.Len(), b.GoodCount())
	}
	av, aerr := a.Test()
	bv, berr := b.Test()
	requireSameOutcome(t, "restored", n, bv, berr, av, aerr)
}

// TestAccumulatorStateRejects checks config/mode mismatches and corruption.
func TestAccumulatorStateRejects(t *testing.T) {
	cfg := behavior.Config{WindowSize: 5, MinWindows: 2, Stride: 10, Calibrator: fastCalibrator(32)}
	testers := diffTesters(t, cfg)
	h := stateHistories(t)["periodic"]
	orig, _ := behavior.NewAccumulatorFor(testers["multi"])
	for i := 0; i < h.Len(); i++ {
		orig.Append(h.At(i))
	}
	blob := orig.AppendState(nil)

	// Mode mismatch.
	wrong, _ := behavior.NewAccumulatorFor(testers["collusion"])
	if err := wrong.RestoreState(blob); err == nil {
		t.Fatal("mode mismatch accepted")
	}
	// Config mismatch.
	cfg2 := cfg
	cfg2.WindowSize = 2
	otherTesters := diffTesters(t, cfg2)
	wrongCfg, _ := behavior.NewAccumulatorFor(otherTesters["multi"])
	if err := wrongCfg.RestoreState(blob); err == nil {
		t.Fatal("config mismatch accepted")
	}
	// Non-empty target.
	busy, _ := behavior.NewAccumulatorFor(testers["multi"])
	busy.Append(h.At(0))
	if err := busy.RestoreState(blob); err == nil {
		t.Fatal("restore into non-empty accumulator accepted")
	}
	// rejects restores bad into a fresh accumulator: it must fail with
	// ErrBadState and never half-apply — the accumulator stays empty and
	// still restores the good blob afterwards.
	rejects := func(what string, bad []byte) {
		t.Helper()
		fresh, _ := behavior.NewAccumulatorFor(testers["multi"])
		if err := fresh.RestoreState(bad); !errors.Is(err, behavior.ErrBadState) {
			t.Fatalf("%s: RestoreState = %v, want ErrBadState", what, err)
		}
		if fresh.Len() != 0 {
			t.Fatalf("%s: failed restore mutated accumulator (n=%d)", what, fresh.Len())
		}
		if err := fresh.RestoreState(blob); err != nil {
			t.Fatalf("%s: accumulator unusable after failed restore: %v", what, err)
		}
		requireSameTest(t, h.Len(), orig, fresh)
	}
	// Truncations, the window string cut short among them.
	for cut := 0; cut < len(blob); cut++ {
		rejects(fmt.Sprintf("truncated to %d of %d bytes", cut, len(blob)), blob[:cut])
	}
	rejects("trailing byte", append(append([]byte(nil), blob...), 0))
	tampered := func(i int, v byte) []byte {
		bad := append([]byte(nil), blob...)
		bad[i] = v
		return bad
	}
	// Version 1 (the checkpoint-ladder layout) is not decoded.
	rejects("version 1", tampered(0, 1))
	// The blob ends with the window string: n−m+1 one-byte good counts.
	last := len(blob) - 1
	rejects("window above m", tampered(last, byte(cfg.WindowSize+1)))
	// A changed window no longer matches the stored histograms and sums.
	rejects("window disagreeing with histogram and sum", tampered(last-1, blob[last-1]^1))
	// After the two header bytes and five single-byte fields come the m+1
	// ring entries, then phase 0: its sum, then its histogram.
	phase0 := 2 + 5 + cfg.WindowSize + 1
	rejects("sum disagreeing with window string", tampered(phase0, blob[phase0]^1))
	rejects("histogram disagreeing with window string", tampered(phase0+1, blob[phase0+1]^1))
}

// FuzzAccumulatorState feeds arbitrary bytes to RestoreState for every mode:
// it must reject or restore, never panic or allocate past the blob's size,
// and whatever it accepts must be a consistent state — Test runs and the
// state survives another round trip.
func FuzzAccumulatorState(f *testing.F) {
	cfg := behavior.Config{WindowSize: 5, MinWindows: 2, Stride: 10, Calibrator: fastCalibrator(33)}
	multi, err := behavior.NewMulti(cfg)
	if err != nil {
		f.Fatal(err)
	}
	collMulti, err := behavior.NewCollusionMulti(cfg)
	if err != nil {
		f.Fatal(err)
	}
	testers := []behavior.Tester{multi, collMulti}
	h, err := attack.PrepareByColluders("srv-fuzz", 60, 0.9, []feedback.EntityID{"col-a", "col-b"}, stats.NewRNG(34))
	if err != nil {
		f.Fatal(err)
	}
	for _, tester := range testers {
		acc, _ := behavior.NewAccumulatorFor(tester)
		f.Add(acc.AppendState(nil))
		for i := 0; i < h.Len(); i++ {
			acc.Append(h.At(i))
			if i == 3 || i == 27 || i == h.Len()-1 {
				f.Add(acc.AppendState(nil))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, tester := range testers {
			acc, _ := behavior.NewAccumulatorFor(tester)
			if err := acc.RestoreState(data); err != nil {
				if !errors.Is(err, behavior.ErrBadState) {
					t.Fatalf("RestoreState error %v does not wrap ErrBadState", err)
				}
				if acc.Len() != 0 {
					t.Fatalf("failed restore left %d records", acc.Len())
				}
				continue
			}
			if _, err := acc.Test(); err != nil && !errors.Is(err, behavior.ErrInsufficientHistory) {
				t.Fatalf("restored state does not test: %v", err)
			}
			// Not necessarily data itself (varints need not be minimal), but
			// what it re-encodes to is a fixed point.
			again := acc.AppendState(nil)
			twin, _ := behavior.NewAccumulatorFor(tester)
			if err := twin.RestoreState(again); err != nil {
				t.Fatalf("re-encoded state rejected: %v", err)
			}
			if !bytes.Equal(twin.AppendState(nil), again) {
				t.Fatalf("re-encoding is not canonical: %x", again)
			}
			requireSameTest(t, acc.Len(), acc, twin)
		}
	})
}
