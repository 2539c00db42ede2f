package ledger

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"honestplayer/internal/feedback"
)

// ledgerBytes reads every segment file under dir, by name.
func ledgerBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "ledger.[0-9]*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no segments under %s (err %v)", dir, err)
	}
	out := make(map[string][]byte, len(files))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(f)] = b
	}
	return out
}

// TestPersistentAddIsBatchOfOne: Add is AddBatch of one, not a second copy
// of the pin → fault-in → append → tail-index → snapshot-trigger sequence.
// The same stream — fresh records, a duplicate, an invalid record and, with
// the lifecycle on, a write to an evicted server — fed record by record
// through each must report the same results and leave the same store, the
// same ledger bytes and the same tail index.
func TestPersistentAddIsBatchOfOne(t *testing.T) {
	for _, budget := range []int64{0, 1 << 40} {
		name := "lifecycle off"
		if budget > 0 {
			name = "lifecycle on"
		}
		t.Run(name, func(t *testing.T) {
			type result struct {
				Stored bool
				Err    string
			}
			run := func(add func(*PersistentStore, feedback.Feedback) (bool, error)) ([]result, map[string]any, map[string][]byte, map[string][]feedback.Feedback) {
				dir := filepath.Join(t.TempDir(), "led")
				ps, err := OpenStoreOptions(context.Background(), dir, Options{Shards: 2, MemBudget: budget})
				if err != nil {
					t.Fatal(err)
				}
				defer ps.Close()
				var results []result
				feed := func(f feedback.Feedback) {
					stored, err := add(ps, f)
					r := result{Stored: stored}
					if err != nil {
						r.Err = err.Error()
					}
					results = append(results, r)
				}
				for i := 0; i < 20; i++ {
					f := rec(feedback.EntityID([]byte{'c', byte('a' + i%5)}), i%3 != 0, int64(i+1))
					f.Server = feedback.EntityID([]byte{'s', byte('a' + i%3)})
					feed(f)
				}
				dup := rec("ca", false, 1)
				dup.Server = "sa"
				feed(dup)
				feed(feedback.Feedback{Server: "sa", Client: "nobody"})
				if budget > 0 {
					if _, err := ps.Snapshot(); err != nil {
						t.Fatal(err)
					}
					if !ps.Store().EvictServer("sb") {
						t.Fatal("evict failed")
					}
					healed := rec("healer", true, 500)
					healed.Server = "sb"
					feed(healed)
				}
				if err := ps.ledger.Sync(); err != nil {
					t.Fatal(err)
				}
				ps.tailMu.Lock()
				tail := make(map[string][]feedback.Feedback, len(ps.tailIdx))
				for srv, recs := range ps.tailIdx {
					tail[srv] = append([]feedback.Feedback(nil), recs...)
				}
				ps.tailMu.Unlock()
				return results, storeFingerprint(t, ps.Store(), nil), ledgerBytes(t, dir), tail
			}
			oneRes, oneStore, oneBytes, oneTail := run(func(ps *PersistentStore, f feedback.Feedback) (bool, error) {
				return ps.Add(f)
			})
			batchRes, batchStore, batchBytes, batchTail := run(func(ps *PersistentStore, f feedback.Feedback) (bool, error) {
				r := ps.AddBatch([]feedback.Feedback{f}, 1)
				if len(r) != 1 {
					t.Fatalf("AddBatch of one returned %d results", len(r))
				}
				return r[0].Stored, r[0].Err
			})
			if !reflect.DeepEqual(oneRes, batchRes) {
				t.Fatalf("results differ:\n Add      %+v\n AddBatch %+v", oneRes, batchRes)
			}
			if last := oneRes[len(oneRes)-1]; budget > 0 && (!last.Stored || last.Err != "") {
				t.Fatalf("write to an evicted server = %+v, want a self-healed add", last)
			}
			if !reflect.DeepEqual(oneStore, batchStore) {
				t.Fatal("stores differ")
			}
			if !reflect.DeepEqual(oneBytes, batchBytes) {
				t.Fatal("ledger bytes differ")
			}
			if !reflect.DeepEqual(oneTail, batchTail) {
				t.Fatalf("tail indexes differ:\n Add      %v\n AddBatch %v", oneTail, batchTail)
			}
			if budget > 0 && len(oneTail) == 0 {
				t.Fatal("lifecycle on but nothing in the tail index")
			}
		})
	}
}

// TestOverlongIDRefused: a record whose id is above the 1,024 bytes every
// record encoding carries is refused by the one validation, before the
// store sees it. It used to be stored in memory, refused by the ledger
// ("stored in memory but not persisted"), acknowledged as a duplicate on
// retry and lost at the next restart. Now each attempt fails its own slot
// with the validation error the node answers as invalid_feedback, nothing
// of it is held, its valid sibling is stored once, and a restart finds
// exactly that sibling.
func TestOverlongIDRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	ps, err := OpenStoreOptions(context.Background(), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	long := feedback.EntityID(strings.Repeat("c", 2000))
	sibling := feedback.Feedback{Time: time.Unix(1, 0).UTC(), Server: "srv", Client: "c", Rating: feedback.Positive}
	recs := []feedback.Feedback{{Time: time.Unix(1, 0).UTC(), Server: "srv", Client: long, Rating: feedback.Positive}, sibling}
	for attempt := range 2 {
		res := ps.AddBatch(recs, 0)
		if !errors.Is(res[0].Err, feedback.ErrRecordTooLarge) || res[0].Stored {
			t.Fatalf("attempt %d: overlong record answered %+v, want ErrRecordTooLarge", attempt, res[0])
		}
		if res[1].Err != nil || res[1].Stored != (attempt == 0) {
			t.Fatalf("attempt %d: sibling answered %+v", attempt, res[1])
		}
		if got := ps.Store().Records("srv"); !reflect.DeepEqual(got, []feedback.Feedback{sibling}) {
			t.Fatalf("attempt %d: the store holds %v", attempt, got)
		}
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	ps, err = OpenStoreOptions(context.Background(), dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if got := ps.Store().Records("srv"); !reflect.DeepEqual(got, []feedback.Feedback{sibling}) {
		t.Fatalf("after a restart the store holds %v", got)
	}
}
