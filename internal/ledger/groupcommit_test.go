package ledger

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"honestplayer/internal/feedback"
	"honestplayer/internal/metrics"
)

func TestAppendBatchReplay(t *testing.T) {
	path := t.TempDir() + "/ledger"
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []feedback.Feedback{rec("a", true, 1), rec("b", false, 2), rec("c", true, 3)}
	if err := l.AppendBatch(want); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	// A batch with any invalid record fails whole before anything is queued.
	if err := l.AppendBatch([]feedback.Feedback{rec("d", true, 4), {}}); err == nil {
		t.Fatal("batch with invalid record must fail")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Client != want[i].Client || !got[i].Time.Equal(want[i].Time) {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestGroupCommitCounters(t *testing.T) {
	path := t.TempDir() + "/ledger"
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()

	batch := make([]feedback.Feedback, 6)
	for i := range batch {
		batch[i] = rec(feedback.EntityID(fmt.Sprintf("c%d", i)), true, int64(i+1))
	}
	if err := l.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec("solo", true, 100)); err != nil {
		t.Fatal(err)
	}

	// Bucketed quantiles: sizes {6, 1} → P50 is the 1-record bucket's upper
	// bound, P99 the 6-record group's bucket (2^3 = 8); only the 6-record
	// group coalesced.
	want := map[string]uint64{"flushes": 2, "coalesced": 1, "records": 7, "size_p50": 1, "size_p99": 8}
	if gc := groupCommit(l); !reflect.DeepEqual(gc, want) {
		t.Fatalf("group_commit = %v, want %v", gc, want)
	}
}

// appendConcurrently runs appenders goroutines, each committing total records
// through a mix of single Appends and 5-record AppendBatches, and returns the
// overall record count. Every record is content-unique (disjoint time ranges
// per goroutine).
func appendConcurrently(t *testing.T, l *Ledger, appenders, total int) int {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, appenders)
	for g := 0; g < appenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := feedback.EntityID(fmt.Sprintf("g%02d", g))
			base := int64(1_000_000 * (g + 1))
			for i := 0; i < total; {
				if i%2 == 0 && i+5 <= total {
					batch := make([]feedback.Feedback, 5)
					for j := range batch {
						batch[j] = rec(client, j%2 == 0, base+int64(i+j))
					}
					if err := l.AppendBatch(batch); err != nil {
						errs[g] = err
						return
					}
					i += 5
				} else {
					if err := l.Append(rec(client, true, base+int64(i))); err != nil {
						errs[g] = err
						return
					}
					i++
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("appender %d: %v", g, err)
		}
	}
	return appenders * total
}

// TestGroupCommitCrashConsistency simulates a kill mid-group: after a
// concurrent workload, the active segment loses its tail mid-record, and the
// reopened ledger must replay exactly the longest verified prefix of what was
// on disk — no reordering, no holes — and accept new appends cleanly.
func TestGroupCommitCrashConsistency(t *testing.T) {
	path := t.TempDir() + "/ledger"
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	total := appendConcurrently(t, l, 8, 40)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Capture the committed on-disk order, then cut the active segment
	// mid-record: 7 bytes off the end lands inside the final record's
	// payload+checksum, and stray garbage follows as a torn half-append.
	_, full, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != total {
		t.Fatalf("replayed %d records before crash, want %d", len(full), total)
	}
	seg := activeSegPath(t, path)
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-7); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x19, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= total || len(got) == 0 {
		t.Fatalf("replayed %d records after crash, want a proper prefix of %d", len(got), total)
	}
	for i := range got {
		if got[i].Client != full[i].Client || !got[i].Time.Equal(full[i].Time) ||
			got[i].Rating != full[i].Rating {
			t.Fatalf("record %d diverges after crash: %+v != %+v", i, got[i], full[i])
		}
	}
	// The truncated tail is gone for good; fresh appends land cleanly.
	if err := l2.Append(rec("after", true, 9_000_000)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, again, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(got)+1 {
		t.Fatalf("after recovery+append: %d records, want %d", len(again), len(got)+1)
	}
}

// TestTornBlockDropsWholeGroup: a commit group is one block, so a tail torn
// at any byte inside the last block loses that group whole — boot keeps
// exactly the groups before it, never a prefix of the torn one — which is
// the all-or-nothing AppendBatch promises.
func TestTornBlockDropsWholeGroup(t *testing.T) {
	recs := stream(15)
	groups := [][]feedback.Feedback{recs[:5], recs[5:12], recs[12:]}
	path := filepath.Join(t.TempDir(), "ledger")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var ends []int64 // segment size after each group
	for _, g := range groups {
		if err := l.AppendBatch(g); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, l.segSize)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(activeSegPath(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(whole)) != ends[2] {
		t.Fatalf("segment is %d bytes, the ledger counted %d", len(whole), ends[2])
	}
	for cut := ends[1]; cut <= ends[2]; cut++ {
		dir := filepath.Join(t.TempDir(), "torn")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := Open(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		want := recs[:12]
		if cut == ends[2] {
			want = recs
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d of %d: replayed %d records, want %d", cut, ends[2], len(got), len(want))
		}
		if wantCut := cut - ends[1]; cut < ends[2] && l.truncatedBytes != wantCut {
			t.Fatalf("cut at %d: %d bytes truncated, want %d", cut, l.truncatedBytes, wantCut)
		}
		// The torn group's ids left no trace in the writer's dictionaries:
		// the group appends again and everything reads back.
		if err := l.AppendBatch(groups[2]); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, again, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(append([]feedback.Feedback(nil), got...), groups[2]...); !reflect.DeepEqual(again, want) {
			t.Fatalf("cut at %d: after re-append replayed %d records, want %d", cut, len(again), len(want))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPoisonedAfterWriteFailure pins the satellite fix: a failed Write/Flush
// must not leave the in-memory chain ahead of the durable bytes. The ledger
// turns sticky-poisoned instead, failing every later append and Sync fast,
// and a reopen recovers exactly the records flushed before the failure.
func TestPoisonedAfterWriteFailure(t *testing.T) {
	path := t.TempDir() + "/ledger"
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec("ok", true, 1)); err != nil {
		t.Fatal(err)
	}
	// Simulate the device failing under the ledger: close the segment file
	// out from under the ledger, so the next Write errors.
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	first := l.Append(rec("fail", true, 2))
	if first == nil {
		t.Fatal("append over closed file must fail")
	}
	// Every later operation fails fast with the sticky poison error.
	second := l.Append(rec("fail2", true, 3))
	if second == nil {
		t.Fatal("poisoned ledger accepted an append")
	}
	if !errors.Is(second, os.ErrClosed) {
		t.Fatalf("poison error lost its cause: %v", second)
	}
	if err := l.AppendBatch([]feedback.Feedback{rec("fail3", true, 4)}); err == nil {
		t.Fatal("poisoned ledger accepted a batch")
	}
	if err := l.Sync(); err == nil {
		t.Fatal("poisoned ledger accepted a Sync")
	}
	if gc := groupCommit(l); gc["records"] != 1 {
		t.Fatalf("counters advanced past the failure: %v", gc)
	}
	_ = l.Close()

	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Client != "ok" {
		t.Fatalf("reopen after poison: got %d records %+v, want the 1 pre-failure record", len(got), got)
	}
}

// TestConcurrentAppendSyncRace interleaves Append, AppendBatch, Sync, and
// /metricz renders from many goroutines — the -race job's target — then
// proves no record was lost or duplicated by replaying the log.
func TestConcurrentAppendSyncRace(t *testing.T) {
	path := t.TempDir() + "/ledger"
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	l.registerMetrics(reg)
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := l.Sync(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, err := json.Marshal(reg); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	total := appendConcurrently(t, l, 6, 30)
	close(stop)
	aux.Wait()
	if got := groupCommit(l)["records"]; got != uint64(total) {
		t.Fatalf("group-commit carried %d records, want %d", got, total)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("replayed %d records, want %d", len(got), total)
	}
}

// groupCommit reads l's group_commit block, as /metricz serves it.
func groupCommit(l *Ledger) map[string]uint64 {
	reg := metrics.New()
	l.registerMetrics(reg)
	gc := map[string]uint64{}
	for _, k := range []string{"flushes", "coalesced", "records", "size_p50", "size_p99"} {
		gc[k] = reg.Value("ledger.group_commit." + k).(uint64)
	}
	return gc
}
