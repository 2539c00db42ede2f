package behavior_test

// Scheme 2's optimisation checked exhaustively on a small scope: every
// binary outcome sequence of up to -outcome-len records, walked depth first
// so that every history costs one append. At every prefix the O(n) Multi
// must give the verdict of the O(n²) MultiNaive that re-tests each suffix
// from scratch, bit for bit.

import (
	"flag"
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

var outcomeLen = flag.Int("outcome-len", 14, "longest history TestOutcomeEnumeration walks")

// firstFailing returns the index of v's first failing suffix, or -1.
func firstFailing(v behavior.Verdict) int {
	for i, s := range v.Suffixes {
		if !s.Pass {
			return i
		}
	}
	return -1
}

// TestOutcomeEnumeration walks every outcome sequence of up to -outcome-len
// records of one client, with windows of 2, 3 and 4 and strides of one and
// two windows on one pinned calibrator: each child appends one record to a
// clone of its parent's history — the last child to the parent's own.
func TestOutcomeEnumeration(t *testing.T) {
	cal := stats.NewCalibrator(stats.CalibrationConfig{Replicates: 40, Seed: 23}, 0)
	var multis, naives []behavior.Tester
	for m := 2; m <= 4; m++ {
		for _, windows := range []int{1, 2} {
			cfg := behavior.Config{WindowSize: m, MinWindows: 1, Stride: windows * m, Calibrator: cal}
			multi, err := behavior.NewMulti(cfg)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := behavior.NewMultiNaive(cfg)
			if err != nil {
				t.Fatal(err)
			}
			multis, naives = append(multis, multi), append(naives, naive)
		}
	}
	check := func(h *feedback.History) {
		for i, multi := range multis {
			want, wantErr := naives[i].Test(h)
			got, gotErr := multi.Test(h)
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() ||
				!reflect.DeepEqual(got, want) || firstFailing(got) != firstFailing(want) {
				cfg, _ := behavior.ConfigFor(multi)
				t.Fatalf("Multi (m=%d, stride %d) over %v:\n got %+v (%v)\nwant %+v (%v)",
					cfg.WindowSize, cfg.Stride, h.Outcomes(), got, gotErr, want, wantErr)
			}
		}
	}
	nodes := 0
	var walk func(h *feedback.History)
	walk = func(h *feedback.History) {
		if h.Len() > 0 {
			check(h)
			nodes++
		}
		if h.Len() == *outcomeLen {
			return
		}
		for _, good := range []bool{false, true} {
			child := h
			if !good {
				child = h.Clone()
			}
			if err := child.AppendOutcome("c", good, time.Unix(int64(h.Len())+1, 0)); err != nil {
				t.Fatal(err)
			}
			walk(child)
		}
	}
	walk(feedback.NewHistory("srv"))
	t.Logf("%d histories of up to %d records", nodes, *outcomeLen)
}
