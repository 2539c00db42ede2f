package behavior_test

// Tests for what the callers of one tester share — its configuration and
// the calibrator's grid — and for what one Test call allocates.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// fastCalibrator keeps Monte-Carlo cost low; determinism, not accuracy, is
// what these tests need.
func fastCalibrator(seed uint64) *stats.Calibrator {
	return stats.NewCalibrator(stats.CalibrationConfig{Replicates: 120, Seed: seed}, 0)
}

// honestHistory generates one honest server's history, seeded by i.
func honestHistory(t testing.TB, i, n int) *feedback.History {
	t.Helper()
	h, err := attack.GenHonest(feedback.EntityID(fmt.Sprintf("srv-%d", i)), n, 0.8+float64(i%19)/100, 5, stats.NewRNG(uint64(100+i)))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestOneTesterConcurrent hammers what a node's verdicts share from every
// side at once: 8 goroutines test 64 histories with one tester, and two
// writers append to histories of their own and test every prefix meanwhile,
// all over one calibrator grid. Every verdict must equal the one computed
// alone first, which also fills the grid points: under the familywise
// correction nearby confidences share a bucket, and the first asker of a
// point decides it (TestCalibratorSingleFlight covers a cold grid's
// concurrent fills).
func TestOneTesterConcurrent(t *testing.T) {
	tester, err := behavior.NewMulti(behavior.Config{Calibrator: fastCalibrator(51), FamilywiseCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	const readers, servers, records = 8, 64, 130
	hists := make([]*feedback.History, servers)
	want := make([]behavior.Verdict, servers)
	prefixes := make([][]behavior.Verdict, 2)
	for i := range hists {
		hists[i] = honestHistory(t, i, records)
		if want[i], err = tester.Test(hists[i]); err != nil {
			t.Fatal(err)
		}
	}
	// grow appends hists[g] to a history of its own record by record and
	// tests every prefix.
	grow := func(g int, each func(n int, v behavior.Verdict) bool) {
		h := feedback.NewHistory(hists[g].Server())
		for j := 0; j < records; j++ {
			if err := h.Append(hists[g].At(j)); err != nil {
				t.Error(err)
				return
			}
			v, _ := tester.Test(h)
			if !each(j+1, v) {
				return
			}
		}
	}
	for g := range prefixes {
		grow(g, func(_ int, v behavior.Verdict) bool { prefixes[g] = append(prefixes[g], v); return true })
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := range hists {
					i = (i + g*servers/readers) % servers
					got, err := tester.Test(hists[i])
					if err != nil || !reflect.DeepEqual(got, want[i]) {
						t.Errorf("reader %d, history %d: verdict %+v (%v), alone %+v", g, i, got, err, want[i])
						return
					}
				}
			}
		}(g)
	}
	for g := range prefixes {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			grow(g, func(n int, got behavior.Verdict) bool {
				if !reflect.DeepEqual(got, prefixes[g][n-1]) {
					t.Errorf("writer %d at n=%d: verdict %+v, alone %+v", g, n, got, prefixes[g][n-1])
					return false
				}
				return true
			})
		}(g)
	}
	wg.Wait()
}

// TestWidestWindow: at MaxWindowSize, whose window good counts span the
// whole byte a verdict chain carries, Multi equals the MultiNaive reference.
func TestWidestWindow(t *testing.T) {
	cfg := behavior.Config{WindowSize: behavior.MaxWindowSize, MinWindows: 2, Stride: 2 * behavior.MaxWindowSize, Calibrator: fastCalibrator(55)}
	multi, err := behavior.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := behavior.NewMultiNaive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := honestHistory(t, 7, 2500)
	want, err := naive.Test(h)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := multi.Test(h); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Multi over %d records at m=%d: %+v (%v), MultiNaive %+v", h.Len(), cfg.WindowSize, got, err, want)
	}
}

// TestMultiTestAllocations: a Scheme-2 test over 10,000 records allocates per
// call, not per suffix — its window counts, one histogram, one PMF scratch
// table and the verdict, nothing for each of its ~1,000 suffixes.
func TestMultiTestAllocations(t *testing.T) {
	tester, err := behavior.NewMulti(behavior.Config{Calibrator: fastCalibrator(57)})
	if err != nil {
		t.Fatal(err)
	}
	h := honestHistory(t, 3, 10000)
	if _, err := tester.Test(h); err != nil { // calibrates the grid points
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := tester.Test(h); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 32 {
		t.Fatalf("Multi.Test over %d records: %v allocs per call, want ≤ 32", h.Len(), allocs)
	}
}

// TestCollusionMultiTestAllocations: a collusion-resilient multi-test over
// 5,000 records allocates per call, not per suffix or per client — the
// window source's client ranking, prefix layout, sort buckets and window
// counts, one histogram, one PMF scratch table and the verdict, nothing for
// each of its ~500 suffixes.
func TestCollusionMultiTestAllocations(t *testing.T) {
	tester, err := behavior.NewCollusionMulti(behavior.Config{Calibrator: fastCalibrator(59)})
	if err != nil {
		t.Fatal(err)
	}
	for _, clients := range []int{20, 500} {
		h, err := attack.GenHonest("srv", 5000, 0.9, clients, stats.NewRNG(60))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tester.Test(h); err != nil { // calibrates the grid points
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := tester.Test(h); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 12 {
			t.Fatalf("CollusionMulti.Test over %d records of %d clients: %v allocs per call, want ≤ 12", h.Len(), clients, allocs)
		}
	}
}
