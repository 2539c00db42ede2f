package behavior

// The collusion testers checked exhaustively on a small scope: every history
// of up to -collusion-len records over three clients — every outcome and
// every issuer assignment, so every tie between group sizes — against a
// definition of the §4 re-order that shares no code with the testers. Each
// suffix's records are sorted by a plain stable sort, rebuilt into a fresh
// history, windowed from its end and scored; the testers, an accumulator fed
// record by record and a clone of it must all give that verdict, bit for bit.

import (
	"flag"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

var collusionLen = flag.Int("collusion-len", 5, "longest history TestCollusionEnumeration walks")

// reordered rebuilds recs in the order of §4 from its definition: larger
// issuer groups first, groups of one size by client ID, time order within a
// group.
func reordered(recs []feedback.Feedback) *feedback.History {
	size := make(map[feedback.EntityID]int)
	for _, f := range recs {
		size[f.Client]++
	}
	recs = slices.Clone(recs)
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i].Client, recs[j].Client
		if size[a] != size[b] {
			return size[a] > size[b]
		}
		return a < b
	})
	h := feedback.NewHistory(recs[0].Server)
	for _, f := range recs {
		if err := h.Append(f); err != nil {
			panic(err)
		}
	}
	return h
}

// collusionOracle is the verdict of NewCollusion(cfg) — of
// NewCollusionMulti(cfg) when multi is set — over a history of l records,
// from the definition: the whole history, or each stride-aligned suffix,
// re-ordered, windowed from its end and scored. windows(m, n) returns the
// window counts of the most recent n records re-ordered.
func collusionOracle(cfg Config, multi bool, l int, windows func(m, n int) []int) (Verdict, error) {
	m := cfg.WindowSize
	k := l / m
	if k < cfg.MinWindows {
		return Verdict{}, fmt.Errorf("%w: %d windows < %d", ErrInsufficientHistory, k, cfg.MinWindows)
	}
	lengths, confidence := []int{l}, 0.0
	if multi {
		lengths = nil
		for n := k * m; n/m >= cfg.MinWindows; n -= cfg.Stride {
			lengths = append(lengths, n)
		}
		confidence = cfg.suffixConfidence(len(lengths))
	}
	sc, err := newScorer(cfg, confidence)
	if err != nil {
		return Verdict{}, err
	}
	v := Verdict{Honest: true}
	for _, n := range lengths {
		var res SuffixResult
		if err := sc.scoreWindows(&res, windows(m, n), make([]uint32, m+1)); err != nil {
			return Verdict{}, err
		}
		v.Suffixes = append(v.Suffixes, res)
		v.Honest = v.Honest && res.Pass
	}
	return v, nil
}

// collusionForm is one collusion tester under check, with its oracle's mode.
type collusionForm struct {
	tester *Collusion
	multi  bool
}

// collusionForms returns the testers the enumeration checks: the single
// test and the multi-test, with and without the familywise correction, at
// windows of 2, 3 and 4 and strides of one and two windows, all on one
// pinned calibrator.
func collusionForms(t testing.TB) []collusionForm {
	t.Helper()
	cal := stats.NewCalibrator(stats.CalibrationConfig{Replicates: 40, Seed: 17}, 0)
	var forms []collusionForm
	for m := 2; m <= 4; m++ {
		for _, windows := range []int{1, 2} {
			for _, fam := range []bool{false, true} {
				cfg := Config{WindowSize: m, MinWindows: 1, Stride: windows * m, Calibrator: cal, FamilywiseCorrection: fam}
				multi, err := NewCollusionMulti(cfg)
				if err != nil {
					t.Fatal(err)
				}
				forms = append(forms, collusionForm{multi, true})
				if windows == 1 && !fam {
					single, err := NewCollusion(cfg)
					if err != nil {
						t.Fatal(err)
					}
					forms = append(forms, collusionForm{single, false})
				}
			}
		}
	}
	return forms
}

// requireForms checks every form's tester over h, and its accumulator in
// accs and a clone of that, against the oracle. The oracle's re-ordered
// windows are built once per window size and suffix.
func requireForms(t testing.TB, forms []collusionForm, h *feedback.History, accs []*Accumulator) {
	recs := h.Records()
	memo := make(map[[2]int][]int)
	windows := func(m, n int) []int {
		counts, ok := memo[[2]int{m, n}]
		if !ok {
			var err error
			if counts, err = reordered(recs[len(recs)-n:]).WindowCountsFromEnd(m); err != nil {
				t.Fatal(err)
			}
			memo[[2]int{m, n}] = counts
		}
		return counts
	}
	for i, form := range forms {
		cfg := form.tester.cfg
		want, wantErr := collusionOracle(cfg, form.multi, len(recs), windows)
		check := func(what string, got Verdict, gotErr error) {
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s of %s (m=%d, stride %d, familywise %v) over %v:\n got %+v (%v)\nwant %+v (%v)",
					what, form.tester.Name(), cfg.WindowSize, cfg.Stride, cfg.FamilywiseCorrection, recs, got, gotErr, want, wantErr)
			}
		}
		got, err := form.tester.Test(h)
		check("Test", got, err)
		if accs != nil {
			got, err = accs[i].Test()
			check("the accumulator", got, err)
			got, err = accs[i].Clone().Test()
			check("a clone of the accumulator", got, err)
		}
	}
}

// TestCollusionEnumeration walks every history of up to -collusion-len
// records over the clients a, b and c depth first: each child appends one
// record to a clone of its parent's history and accumulators — the last
// child to the parent's own — so every history costs one append and every
// accumulator was fed record by record through clones forked at each prefix.
func TestCollusionEnumeration(t *testing.T) {
	forms := collusionForms(t)
	clients := []feedback.EntityID{"a", "b", "c"}
	nodes := 0
	var walk func(h *feedback.History, accs []*Accumulator)
	walk = func(h *feedback.History, accs []*Accumulator) {
		if h.Len() > 0 {
			requireForms(t, forms, h, accs)
			nodes++
		}
		if h.Len() == *collusionLen {
			return
		}
		const choices = 6 // a client and an outcome
		for c := 0; c < choices; c++ {
			child, childAccs := h, accs
			if c < choices-1 {
				child, childAccs = h.Clone(), make([]*Accumulator, len(accs))
				for i, acc := range accs {
					childAccs[i] = acc.Clone()
				}
			}
			f := feedback.Feedback{Time: time.Unix(int64(h.Len())+1, 0), Server: "srv", Client: clients[c/2], Rating: feedback.Negative}
			if c%2 == 1 {
				f.Rating = feedback.Positive
			}
			if err := child.Append(f); err != nil {
				t.Fatal(err)
			}
			for _, acc := range childAccs {
				acc.Append(f)
			}
			walk(child, childAccs)
		}
	}
	accs := make([]*Accumulator, len(forms))
	for i, form := range forms {
		accs[i], _ = NewAccumulatorFor(form.tester)
	}
	walk(feedback.NewHistory("srv"), accs)
	t.Logf("%d histories of up to %d records", nodes, *collusionLen)
}

// TestCollusionWideAndOffset holds the testers and accumulators to the
// oracle where the enumeration's histories do not reach: a history whose
// dictionary outgrows 16-bit client slots, and suffix views whose first
// record sits inside a good-bit word and whose dictionary holds clients none
// of their records names.
func TestCollusionWideAndOffset(t *testing.T) {
	cal := stats.NewCalibrator(stats.CalibrationConfig{Replicates: 40, Seed: 18}, 0)
	rng := stats.NewRNG(19)
	h := feedback.NewHistory("srv")
	const n = 75_000 // nine in ten records from a client of their own: past 1<<16 clients
	for i := 0; i < n; i++ {
		client := feedback.EntityID(fmt.Sprintf("sybil-%d", i))
		if i%10 == 0 {
			client = feedback.EntityID(fmt.Sprintf("ring-%d", i%3))
		}
		if err := h.AppendOutcome(client, rng.Float64() < 0.9, time.Unix(int64(i)+1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if h.DistinctClients() <= 1<<16 {
		t.Fatalf("%d clients do not widen the slots", h.DistinctClients())
	}
	var forms []collusionForm
	for _, fam := range []bool{false, true} {
		cfg := Config{WindowSize: 4, MinWindows: 1, Stride: 4 * 4096, Calibrator: cal, FamilywiseCorrection: fam}
		multi, err := NewCollusionMulti(cfg)
		if err != nil {
			t.Fatal(err)
		}
		forms = append(forms, collusionForm{multi, true})
	}
	single, err := NewCollusion(Config{WindowSize: 3, MinWindows: 1, Calibrator: cal})
	if err != nil {
		t.Fatal(err)
	}
	forms = append(forms, collusionForm{single, false})
	accs := make([]*Accumulator, len(forms))
	for i, form := range forms {
		accs[i], _ = NewAccumulatorFor(form.tester)
		for j := 0; j < h.Len(); j++ {
			accs[i].Append(h.At(j))
		}
	}
	requireForms(t, forms, h, accs)

	requireForms(t, forms, h.SuffixView(19_999), nil)

	small := feedback.NewHistory("srv")
	for i := 0; i < 300; i++ {
		client := feedback.EntityID(fmt.Sprintf("c%d", i*i%11))
		if err := small.AppendOutcome(client, rng.Float64() < 0.8, time.Unix(int64(i)+1, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for _, length := range []int{201, 137} {
		requireForms(t, collusionForms(t), small.SuffixView(length), nil)
	}
}
