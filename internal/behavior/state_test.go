package behavior_test

// An accumulator's state round-trips through its history's snapshot columns:
// a snapshot section is the history's column encoding and nothing else
// (ADR 0017), so the accumulator a boot replays from the decoded columns must
// equal the one fed record by record — field for field at the cut, and in
// its Test() verdicts and errors, bit for bit, as both keep consuming
// feedback.

import (
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
					prefix := feedback.NewHistory(h.Server())
					for i := 0; i < cut; i++ {
						orig.Append(h.At(i))
						if err := prefix.Append(h.At(i)); err != nil {
							t.Fatal(err)
						}
					}
					section, rest, err := feedback.DecodeColumns(h.Server(), prefix.AppendColumns(nil))
					if err != nil || len(rest) != 0 {
						t.Fatalf("cut %d: DecodeColumns: %v, %d bytes left", cut, err, len(rest))
					}
					replayed, _ := behavior.NewAccumulatorFor(tester)
					for i := 0; i < section.Len(); i++ {
						replayed.Append(section.At(i))
					}
					if !reflect.DeepEqual(orig, replayed) {
						t.Fatalf("cut %d: the accumulator replayed from the columns differs", cut)
					}
					requireSameTest(t, cut, orig, replayed)
					for i := cut; i < h.Len(); i++ {
						orig.Append(h.At(i))
						replayed.Append(h.At(i))
					}
					requireSameTest(t, h.Len(), orig, replayed)
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
	requireSameOutcome(t, "replayed", n, bv, berr, av, aerr)
}
