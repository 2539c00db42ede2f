package core

import (
	"reflect"
	"testing"

	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// TestServerAccumulatorStateRoundTrip: a server's incremental state
// round-trips through its history's snapshot columns. At several prefix
// lengths the prefix is encoded as a snapshot section would be, decoded, and
// replayed into a fresh accumulator, as a rebooting node does; it must equal
// the original field for field, assess bit-identically, and keep doing so
// after both consume the rest of the history.
func TestServerAccumulatorStateRoundTrip(t *testing.T) {
	cal := stats.NewCalibrator(stats.CalibrationConfig{Replicates: 120, Seed: 7}, 0)
	cfg := behavior.Config{WindowSize: 5, MinWindows: 2, Stride: 10, Calibrator: cal}
	multi, err := behavior.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coll, err := behavior.NewCollusionMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := trust.NewWeighted(0.4)
	if err != nil {
		t.Fatal(err)
	}
	testers := map[string]behavior.Tester{"multi": multi, "collusion-multi": coll, "none": nil}
	funcs := map[string]trust.Func{"average": trust.Average{}, "weighted": weighted}
	full := genHistory(t, "srv-state", 70, 0.85, 4, stats.NewRNG(41))

	for testerName, tester := range testers {
		for fnName, fn := range funcs {
			label := testerName + "+" + fnName
			tp, err := NewTwoPhase(tester, fn)
			if err != nil {
				t.Fatal(err)
			}
			for cut := 0; cut <= full.Len(); cut += 17 {
				sa, err := tp.NewServerAccumulator(full.Server())
				if err != nil {
					t.Fatal(err)
				}
				prefix := feedback.NewHistory(full.Server())
				for i := 0; i < cut; i++ {
					sa.Append(full.At(i))
					if err := prefix.Append(full.At(i)); err != nil {
						t.Fatal(err)
					}
				}
				section, _, err := feedback.DecodeColumns(full.Server(), prefix.AppendColumns(nil))
				if err != nil {
					t.Fatal(err)
				}
				replayed, err := tp.NewServerAccumulator(full.Server())
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < section.Len(); i++ {
					replayed.Append(section.At(i))
				}
				if !reflect.DeepEqual(sa, replayed) {
					t.Fatalf("%s cut %d: the accumulator replayed from the columns differs", label, cut)
				}
				gotA, gotErr := replayed.Assess()
				wantA, wantErr := sa.Assess()
				requireSameAssessment(t, label+"/replayed", cut, gotA, gotErr, wantA, wantErr)
				for i := cut; i < full.Len(); i++ {
					sa.Append(full.At(i))
					replayed.Append(full.At(i))
				}
				gotA, gotErr = replayed.Assess()
				wantA, wantErr = sa.Assess()
				requireSameAssessment(t, label+"/caught-up", full.Len(), gotA, gotErr, wantA, wantErr)
			}
		}
	}
}

// TestDeprecatedStateShims: the serialization entry points older callers
// still compile against hold no state — AppendState leaves the buffer as it
// was and reports false, RestoreServerAccumulator fails.
func TestDeprecatedStateShims(t *testing.T) {
	tp, err := NewTwoPhase(nil, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	sa, err := tp.NewServerAccumulator("srv")
	if err != nil {
		t.Fatal(err)
	}
	sa.Append(feedback.Feedback{Server: "srv", Client: "c", Rating: feedback.Positive})
	if buf, ok := sa.AppendState([]byte{7}); ok || !reflect.DeepEqual(buf, []byte{7}) {
		t.Fatalf("AppendState = %v, %v; want the buffer unchanged and false", buf, ok)
	}
	if acc, n, err := tp.RestoreServerAccumulator("srv", []byte{1}); acc != nil || n != 0 || err == nil {
		t.Fatalf("RestoreServerAccumulator = %v, %d, %v; want an error", acc, n, err)
	}
}
