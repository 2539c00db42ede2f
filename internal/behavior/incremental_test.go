package behavior_test

// Differential tests for the incremental assessment engine: for every
// history and every supported tester, the accumulator must agree with the
// batch tester bit for bit — Honest, per-suffix p̂, distances, thresholds,
// and the ErrInsufficientHistory message — at every prefix length.

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// fastCalibrator keeps Monte-Carlo cost low; determinism, not accuracy, is
// what the differential tests need.
func fastCalibrator(seed uint64) *stats.Calibrator {
	return stats.NewCalibrator(stats.CalibrationConfig{Replicates: 120, Seed: seed}, 0)
}

// diffTesters builds every tester the accumulator supports, for one config.
func diffTesters(t *testing.T, cfg behavior.Config) map[string]behavior.Tester {
	t.Helper()
	single, err := behavior.NewSingle(cfg)
	if err != nil {
		t.Fatalf("NewSingle: %v", err)
	}
	multi, err := behavior.NewMulti(cfg)
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	naive, err := behavior.NewMultiNaive(cfg)
	if err != nil {
		t.Fatalf("NewMultiNaive: %v", err)
	}
	coll, err := behavior.NewCollusion(cfg)
	if err != nil {
		t.Fatalf("NewCollusion: %v", err)
	}
	collMulti, err := behavior.NewCollusionMulti(cfg)
	if err != nil {
		t.Fatalf("NewCollusionMulti: %v", err)
	}
	return map[string]behavior.Tester{
		"single":          single,
		"multi":           multi,
		"multi-naive":     naive,
		"collusion":       coll,
		"collusion-multi": collMulti,
	}
}

// requireSameOutcome asserts the incremental and batch outcomes are
// identical, including error messages.
func requireSameOutcome(t *testing.T, label string, n int, gotV behavior.Verdict, gotErr error, wantV behavior.Verdict, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s at n=%d: error mismatch: incremental=%v batch=%v", label, n, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s at n=%d: error text mismatch:\nincremental: %v\nbatch:       %v", label, n, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(gotV, wantV) {
		t.Fatalf("%s at n=%d: verdict mismatch:\nincremental: %+v\nbatch:       %+v", label, n, gotV, wantV)
	}
}

// diffHistories generates the adversarial and honest feedback patterns the
// differential suite sweeps.
func diffHistories(t *testing.T) map[string]*feedback.History {
	t.Helper()
	out := make(map[string]*feedback.History)
	add := func(name string, h *feedback.History, err error) {
		if err != nil {
			t.Fatalf("generating %s: %v", name, err)
		}
		out[name] = h
	}
	h, err := attack.GenHonest("srv-honest", 150, 0.9, 7, stats.NewRNG(11))
	add("honest-p0.9", h, err)
	h, err = attack.GenHonest("srv-coin", 140, 0.5, 3, stats.NewRNG(12))
	add("honest-p0.5", h, err)
	h, err = attack.GenPeriodic("srv-periodic", 160, 20, 0.5, stats.NewRNG(13))
	add("periodic", h, err)
	h, err = attack.GenHibernating("srv-hibernate", 110, 0.95, 30, stats.NewRNG(14))
	add("hibernating", h, err)
	h, err = attack.GenCheatAndRun("srv-cheat", 90, stats.NewRNG(15))
	add("cheat-and-run", h, err)
	h, err = attack.PrepareByColluders("srv-colluded", 120, 0.9,
		[]feedback.EntityID{"colluder-a", "colluder-b", "colluder-c"}, stats.NewRNG(16))
	add("colluders", h, err)
	return out
}

// TestAccumulatorMatchesBatchEveryPrefix feeds each history record by record
// and checks the accumulator against every batch tester at every prefix
// length, across configurations that exercise non-default window sizes,
// strides spanning multiple windows, and the familywise correction.
func TestAccumulatorMatchesBatchEveryPrefix(t *testing.T) {
	configs := map[string]behavior.Config{
		"defaults":    {Calibrator: fastCalibrator(1)},
		"familywise":  {Calibrator: fastCalibrator(8), FamilywiseCorrection: true},
		"small":       {WindowSize: 5, MinWindows: 2, Stride: 5, Calibrator: fastCalibrator(2)},
		"wide-stride": {WindowSize: 4, MinWindows: 3, Stride: 12, Calibrator: fastCalibrator(3), FamilywiseCorrection: true},
	}
	histories := diffHistories(t)
	for cfgName, cfg := range configs {
		cfg := cfg
		t.Run(cfgName, func(t *testing.T) {
			t.Parallel()
			testers := diffTesters(t, cfg)
			for histName, full := range histories {
				for testerName, tester := range testers {
					acc, ok := behavior.NewAccumulatorFor(tester)
					if !ok {
						t.Fatalf("%s: no accumulator", testerName)
					}
					if acc.Name() != tester.Name() {
						t.Fatalf("accumulator name %q != tester name %q", acc.Name(), tester.Name())
					}
					label := histName + "/" + testerName
					prefix := feedback.NewHistory(full.Server())
					for i := 0; i < full.Len(); i++ {
						rec := full.At(i)
						acc.Append(rec)
						if err := prefix.Append(rec); err != nil {
							t.Fatalf("%s: append: %v", label, err)
						}
						gotV, gotErr := acc.Test()
						wantV, wantErr := tester.Test(prefix)
						requireSameOutcome(t, label, i+1, gotV, gotErr, wantV, wantErr)
					}
					if acc.Len() != full.Len() || acc.GoodCount() != full.GoodCount() {
						t.Fatalf("%s: accumulator counts (%d, %d) != history (%d, %d)",
							label, acc.Len(), acc.GoodCount(), full.Len(), full.GoodCount())
					}
				}
			}
		})
	}
}

// TestAccumulatorMatchesBatchLongHistory spot-checks a longer stream so a
// read walks the window string through a hundred suffixes.
func TestAccumulatorMatchesBatchLongHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("long differential sweep")
	}
	cfg := behavior.Config{Calibrator: fastCalibrator(7), FamilywiseCorrection: true}
	full, err := attack.GenHonest("srv-long", 1200, 0.85, 12, stats.NewRNG(21))
	if err != nil {
		t.Fatalf("GenHonest: %v", err)
	}
	for testerName, tester := range diffTesters(t, cfg) {
		acc, _ := behavior.NewAccumulatorFor(tester)
		prefix := feedback.NewHistory(full.Server())
		for i := 0; i < full.Len(); i++ {
			rec := full.At(i)
			acc.Append(rec)
			if err := prefix.Append(rec); err != nil {
				t.Fatalf("append: %v", err)
			}
			if (i+1)%97 != 0 && i+1 != full.Len() {
				continue
			}
			gotV, gotErr := acc.Test()
			wantV, wantErr := tester.Test(prefix)
			requireSameOutcome(t, "long/"+testerName, i+1, gotV, gotErr, wantV, wantErr)
		}
	}
}

// FuzzIncrementalDifferential fuzzes outcome bit-streams, issuer choices and
// tester geometry — strides of up to eight windows, so the window-string walk
// drops several windows between suffixes — asserting the accumulator is
// identical to the batch Multi, MultiNaive and CollusionMulti testers at
// every quarter of the stream. At the first quarter each accumulator is
// cloned and the clone fed the rest of the stream with every rating flipped
// and the issuer shifted; from then on both sides must match the batch
// tester over their own records.
func FuzzIncrementalDifferential(f *testing.F) {
	f.Add([]byte{0xff, 0x0f, 0xa5, 0x00, 0x3c}, uint8(10), uint8(1), uint8(4), false)
	f.Add([]byte{0x00, 0x00, 0xff, 0xff, 0x81, 0x42}, uint8(5), uint8(2), uint8(2), true)
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, uint8(3), uint8(3), uint8(1), false)
	f.Add(bytes.Repeat([]byte{0xf7, 0x3e, 0xdb, 0x6f, 0xbd}, 8), uint8(1), uint8(5), uint8(0), true)
	f.Add(bytes.Repeat([]byte{0xff, 0xfe, 0x7f}, 20), uint8(2), uint8(7), uint8(2), false)
	cal := fastCalibrator(42)
	f.Fuzz(func(t *testing.T, data []byte, mSel, strideSel, minSel uint8, fam bool) {
		if len(data) == 0 {
			return
		}
		if len(data) > 64 {
			data = data[:64]
		}
		m := 1 + int(mSel)%12
		cfg := behavior.Config{
			WindowSize:           m,
			MinWindows:           1 + int(minSel)%5,
			Stride:               m * (1 + int(strideSel)%8),
			Calibrator:           cal,
			FamilywiseCorrection: fam,
		}
		multi, err := behavior.NewMulti(cfg)
		if err != nil {
			t.Fatalf("NewMulti: %v", err)
		}
		naive, err := behavior.NewMultiNaive(cfg)
		if err != nil {
			t.Fatalf("NewMultiNaive: %v", err)
		}
		collMulti, err := behavior.NewCollusionMulti(cfg)
		if err != nil {
			t.Fatalf("NewCollusionMulti: %v", err)
		}
		testers := []behavior.Tester{multi, naive, collMulti}
		accs := make([]*behavior.Accumulator, len(testers))
		for i, tester := range testers {
			acc, ok := behavior.NewAccumulatorFor(tester)
			if !ok {
				t.Fatalf("no accumulator for %s", tester.Name())
			}
			accs[i] = acc
		}
		clients := []feedback.EntityID{"c0", "c1", "c2", "c3", "c4"}
		h := feedback.NewHistory("srv-fuzz")
		var forked *feedback.History // the clones' records, from the first quarter on
		clones := make([]*behavior.Accumulator, len(testers))
		n := len(data) * 8
		for i := 0; i < n; i++ {
			good := data[i/8]&(1<<(i%8)) != 0
			// Issuer selection reuses the byte so collusion grouping varies
			// with the fuzzed input, not just the outcome bits.
			client := clients[(int(data[i/8])+i)%len(clients)]
			rec := feedback.Feedback{
				Time:   time.Unix(int64(i)+1, 0),
				Server: h.Server(),
				Client: client,
				Rating: feedback.Negative,
			}
			if good {
				rec.Rating = feedback.Positive
			}
			if err := h.Append(rec); err != nil {
				t.Fatalf("append: %v", err)
			}
			for _, acc := range accs {
				acc.Append(rec)
			}
			if forked != nil {
				rec.Client = clients[(int(data[i/8])+i+1)%len(clients)]
				rec.Rating = feedback.Positive
				if good {
					rec.Rating = feedback.Negative
				}
				if err := forked.Append(rec); err != nil {
					t.Fatalf("append: %v", err)
				}
				for _, acc := range clones {
					acc.Append(rec)
				}
			}
			if (i+1)%(n/4) != 0 {
				continue
			}
			if forked == nil {
				forked = h.Clone()
				for j, acc := range accs {
					clones[j] = acc.Clone()
				}
			}
			for j, tester := range testers {
				gotV, gotErr := accs[j].Test()
				wantV, wantErr := tester.Test(h)
				requireSameOutcome(t, tester.Name(), i+1, gotV, gotErr, wantV, wantErr)
				gotV, gotErr = clones[j].Test()
				wantV, wantErr = tester.Test(forked)
				requireSameOutcome(t, "clone of "+tester.Name(), i+1, gotV, gotErr, wantV, wantErr)
			}
		}
	})
}
