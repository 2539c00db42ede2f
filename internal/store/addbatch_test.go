package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"honestplayer/internal/feedback"
)

// batchWorkload builds a mixed batch: valid records spread over many servers
// (so shard grouping fans out), in-batch duplicates, a record duplicating
// pre-existing state, and invalid records at known positions.
func batchWorkload(servers, n int) []feedback.Feedback {
	recs := make([]feedback.Feedback, 0, n+4)
	for i := 0; i < n; i++ {
		recs = append(recs, accFeedback(
			feedback.EntityID(fmt.Sprintf("s%03d", i%servers)),
			feedback.EntityID(fmt.Sprintf("c%02d", i%7)), i, i%3 != 0))
	}
	recs = append(recs, recs[3])             // in-batch duplicate
	recs = append(recs, feedback.Feedback{}) // invalid: zero record
	recs = append(recs, recs[10])            // another in-batch duplicate
	recs = append(recs, accFeedback("s000", "c00", n+1, true))
	return recs
}

// fingerprint captures the observable per-server state of a store.
func fingerprint(s *Store) map[feedback.EntityID]any {
	fp := make(map[feedback.EntityID]any)
	for _, sv := range s.Servers() {
		fp[sv] = struct {
			Recs    []feedback.Feedback
			Version uint64
		}{s.Records(sv), s.Version(sv)}
	}
	return fp
}

// TestAddBatchMatchesSequentialAdd proves AddBatch is observably identical to
// a sequential Add loop — same per-record outcomes (stored, duplicate,
// invalid), same final histories and versions — at several worker counts, including the parallel shard fan-out.
func TestAddBatchMatchesSequentialAdd(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			recs := batchWorkload(13, 100)

			seq := NewSharded(8)
			var want []AddResult
			for _, f := range recs {
				ok, err := seq.Add(f)
				want = append(want, AddResult{Stored: ok, Err: err})
			}

			bat := NewSharded(8)
			got := bat.AddBatch(recs, workers)

			if len(got) != len(want) {
				t.Fatalf("AddBatch returned %d results, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i].Stored != want[i].Stored || (got[i].Err == nil) != (want[i].Err == nil) {
					t.Fatalf("record %d: batch {stored=%v err=%v} vs sequential {stored=%v err=%v}",
						i, got[i].Stored, got[i].Err, want[i].Stored, want[i].Err)
				}
			}
			if !reflect.DeepEqual(fingerprint(seq), fingerprint(bat)) {
				t.Fatal("store state diverges between AddBatch and sequential Add")
			}
		})
	}
}

// TestAddBatchEmptyAndAllInvalid covers the degenerate shapes: an empty batch
// returns no results and mutates nothing; an all-invalid batch reports every
// error without touching the store.
func TestAddBatchEmptyAndAllInvalid(t *testing.T) {
	s := New()
	if got := s.AddBatch(nil, 4); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	bad := []feedback.Feedback{{}, {}}
	got := s.AddBatch(bad, 4)
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2", len(got))
	}
	for i, r := range got {
		if r.Stored || r.Err == nil {
			t.Fatalf("invalid record %d: stored=%v err=%v", i, r.Stored, r.Err)
		}
	}
	if len(s.Servers()) != 0 {
		t.Fatal("invalid batch mutated the store")
	}
}

// TestAddBatchConcurrentWithAdd runs AddBatch concurrently with single Adds
// and reads — the -race job's target — and checks nothing is lost: every
// unique record is stored exactly once across all callers.
func TestAddBatchConcurrentWithAdd(t *testing.T) {
	s := NewSharded(8)
	const (
		goroutines = 4
		perBatch   = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := g * 10_000
			recs := make([]feedback.Feedback, perBatch)
			for i := range recs {
				recs[i] = accFeedback(
					feedback.EntityID(fmt.Sprintf("s%02d", i%5)),
					feedback.EntityID(fmt.Sprintf("g%d", g)), base+i, true)
			}
			for _, r := range s.AddBatch(recs, 2) {
				if !r.Stored || r.Err != nil {
					t.Errorf("goroutine %d: stored=%v err=%v", g, r.Stored, r.Err)
					return
				}
			}
		}(g)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := 100_000 + g*10_000
			for i := 0; i < perBatch; i++ {
				f := accFeedback("solo", feedback.EntityID(fmt.Sprintf("a%d", g)), base+i, true)
				if ok, err := s.Add(f); !ok || err != nil {
					t.Errorf("goroutine %d Add: ok=%v err=%v", g, ok, err)
					return
				}
				_ = s.Version("solo")
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, sv := range s.Servers() {
		total += len(s.Records(sv))
	}
	if want := 2 * goroutines * perBatch; total != want {
		t.Fatalf("store holds %d records, want %d", total, want)
	}
}
