package behavior_test

// Tests for what accumulators of one tester share (the configuration and the
// calibrator's grid) and for what each keeps to itself (counters only).

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// honestHistory generates one honest server's history, seeded by i.
func honestHistory(t testing.TB, i, n int) *feedback.History {
	t.Helper()
	h, err := attack.GenHonest(feedback.EntityID(fmt.Sprintf("srv-%d", i)), n, 0.8+float64(i%19)/100, 5, stats.NewRNG(uint64(100+i)))
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestAccumulatorsOfOneTesterConcurrent hammers what one tester's
// accumulators share from every side at once: 8 goroutines read 64
// accumulators, and further accumulators of the same tester take appends
// meanwhile, all over one calibrator grid. Every verdict must equal the
// batch tester's.
func TestAccumulatorsOfOneTesterConcurrent(t *testing.T) {
	tester, err := behavior.NewMulti(behavior.Config{Calibrator: fastCalibrator(51), FamilywiseCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	const readers, accs, records = 8, 64, 130
	hists := make([]*feedback.History, accs)
	readAccs := make([]*behavior.Accumulator, accs)
	want := make([]behavior.Verdict, accs)
	for i := range hists {
		hists[i] = honestHistory(t, i, records)
		readAccs[i], _ = behavior.NewAccumulatorFor(tester)
		for j := 0; j < records; j++ {
			readAccs[i].Append(hists[i].At(j))
		}
		if want[i], err = tester.Test(hists[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := range readAccs {
					i = (i + g*accs/readers) % accs
					got, err := readAccs[i].Test()
					if err != nil || !reflect.DeepEqual(got, want[i]) {
						t.Errorf("reader %d, accumulator %d: verdict %+v (%v), batch %+v", g, i, got, err, want[i])
						return
					}
				}
			}
		}(g)
	}
	// Writers own their accumulators (the store's contract: one writer per
	// accumulator, no reads meanwhile) but share the tester's grid.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acc, _ := behavior.NewAccumulatorFor(tester)
			prefix := feedback.NewHistory(hists[g].Server())
			for j := 0; j < records; j++ {
				rec := hists[g].At(j)
				acc.Append(rec)
				if err := prefix.Append(rec); err != nil {
					t.Error(err)
					return
				}
				got, gotErr := acc.Test()
				wantV, wantErr := tester.Test(prefix)
				if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, wantV) {
					t.Errorf("writer %d at n=%d: verdict %+v (%v), batch %+v (%v)", g, j+1, got, gotErr, wantV, wantErr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentTestSameAccumulator: Test writes nothing, so two calls on
// one accumulator may overlap and must agree.
func TestConcurrentTestSameAccumulator(t *testing.T) {
	for name, tester := range diffTesters(t, behavior.Config{Calibrator: fastCalibrator(52)}) {
		h := honestHistory(t, 3, 170)
		acc, _ := behavior.NewAccumulatorFor(tester)
		for j := 0; j < h.Len(); j++ {
			acc.Append(h.At(j))
		}
		want, err := tester.Test(h)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					if got, err := acc.Test(); err != nil || !reflect.DeepEqual(got, want) {
						t.Errorf("%s: verdict %+v (%v), batch %+v", name, got, err, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}

// heapAlloc returns the live heap after a forced collection.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSizeBytesTracksHeap: the accounted size of a population of
// accumulators is what the heap actually grew by, within a quarter — with
// the calibrator's grid out of the per-server figure, nothing large is left
// to mis-state. The collusion modes' figure is their history's, here of
// records from many clients.
func TestSizeBytesTracksHeap(t *testing.T) {
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: fastCalibrator(53)})
	if err != nil {
		t.Fatal(err)
	}
	collusion, err := behavior.NewCollusionMulti(behavior.Config{Calibrator: fastCalibrator(53)})
	if err != nil {
		t.Fatal(err)
	}
	const servers, records = 1000, 200
	many, err := attack.GenHonest("srv-many", records, 0.9, 150, stats.NewRNG(61))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		tester behavior.Tester
		h      *feedback.History
		most   int // accounted bytes per accumulator
	}{
		{multi, honestHistory(t, 1, records), 4096},
		{collusion, many, 5120},
	} {
		warm, _ := behavior.NewAccumulatorFor(row.tester)
		for j := 0; j < records; j++ {
			warm.Append(row.h.At(j))
		}
		if _, err := warm.Test(); err != nil { // calibrate the grid before measuring
			t.Fatal(err)
		}
		accs := make([]*behavior.Accumulator, servers)
		before := heapAlloc()
		for i := range accs {
			accs[i], _ = behavior.NewAccumulatorFor(row.tester)
			for j := 0; j < records; j++ {
				accs[i].Append(row.h.At(j))
			}
		}
		grown := float64(heapAlloc() - before)
		accounted := 0
		for _, a := range accs {
			accounted += a.SizeBytes()
		}
		t.Logf("%s: accounted %d B, heap grew %.0f B", row.tester.Name(), accounted, grown)
		if ratio := float64(accounted) / grown; ratio < 0.75 || ratio > 1.25 {
			t.Fatalf("%s: accounted %d B for %d accumulators, heap grew %.0f B (ratio %.2f)", row.tester.Name(), accounted, servers, grown, ratio)
		}
		if per := accounted / servers; per > row.most {
			t.Fatalf("%s: %d B accounted per %d-record accumulator", row.tester.Name(), per, records)
		}
		runtime.KeepAlive(accs)
	}
}

// TestNewAccumulatorAllocation: minting an accumulator on a warm tester
// allocates the fixed phase tables and nothing else.
func TestNewAccumulatorAllocation(t *testing.T) {
	tester, err := behavior.NewMulti(behavior.Config{Calibrator: fastCalibrator(54)})
	if err != nil {
		t.Fatal(err)
	}
	const mints = 200
	var before, after runtime.MemStats
	keep := make([]*behavior.Accumulator, mints)
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i], _ = behavior.NewAccumulatorFor(tester)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / mints; per >= 4096 {
		t.Fatalf("NewAccumulatorFor allocates %d B", per)
	}
	runtime.KeepAlive(keep)
}

// TestWideWindowString covers the widest window a tester takes, whose good
// counts use the window string's whole byte, through appends and reads.
func TestWideWindowString(t *testing.T) {
	cfg := behavior.Config{WindowSize: behavior.MaxWindowSize, MinWindows: 2, Stride: 2 * behavior.MaxWindowSize, Calibrator: fastCalibrator(55)}
	tester, err := behavior.NewMulti(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := honestHistory(t, 7, 2500)
	acc, _ := behavior.NewAccumulatorFor(tester)
	for j := 0; j < h.Len(); j++ {
		acc.Append(h.At(j))
	}
	want, wantErr := tester.Test(h)
	got, gotErr := acc.Test()
	requireSameOutcome(t, "wide", h.Len(), got, gotErr, want, wantErr)
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

// TestAccumulatorTestAllocations: an accumulator's Scheme-2 test over 5,000
// records allocates per call, not per suffix — its PMF scratch table, one
// histogram and the verdict, nothing for each of its ~500 suffixes.
func TestAccumulatorTestAllocations(t *testing.T) {
	tester, err := behavior.NewMulti(behavior.Config{Calibrator: fastCalibrator(58)})
	if err != nil {
		t.Fatal(err)
	}
	h := honestHistory(t, 4, 5000)
	acc, _ := behavior.NewAccumulatorFor(tester)
	for j := 0; j < h.Len(); j++ {
		acc.Append(h.At(j))
	}
	if _, err := acc.Test(); err != nil { // calibrates the grid points
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := acc.Test(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Fatalf("Accumulator.Test over %d records: %v allocs per call, want ≤ 3", h.Len(), allocs)
	}
}
