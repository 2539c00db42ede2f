package store

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// recordingAcc captures the records fed to it, for plumbing assertions.
type recordingAcc struct {
	server feedback.EntityID
	recs   []feedback.Feedback
}

func (r *recordingAcc) Append(f feedback.Feedback) { r.recs = append(r.recs, f) }

func (r *recordingAcc) SizeBytes() int { return 64 + len(r.recs)*64 }

func accFeedback(server, client feedback.EntityID, i int, good bool) feedback.Feedback {
	rating := feedback.Negative
	if good {
		rating = feedback.Positive
	}
	return feedback.Feedback{Time: time.Unix(int64(i)+1, 0).UTC(), Server: server, Client: client, Rating: rating}
}

// TestAccumulatorFactoryFeedsInOrder installs the factory before writing and
// checks the accumulator sees exactly the accepted records, duplicates
// excluded, in history order.
func TestAccumulatorFactoryFeedsInOrder(t *testing.T) {
	s := New()
	minted := 0
	s.SetAccumulatorFactory(func(server feedback.EntityID) Accumulator {
		minted++
		return &recordingAcc{server: server}
	})
	recs := []feedback.Feedback{
		accFeedback("srv", "a", 0, true),
		accFeedback("srv", "b", 1, false),
		accFeedback("srv", "c", 2, true),
	}
	for _, f := range recs {
		if ok, err := s.Add(f); err != nil || !ok {
			t.Fatalf("Add: ok=%v err=%v", ok, err)
		}
	}
	// A duplicate must not reach the accumulator.
	if ok, err := s.Add(recs[1]); err != nil || ok {
		t.Fatalf("duplicate Add: ok=%v err=%v", ok, err)
	}
	if minted != 1 {
		t.Fatalf("factory minted %d accumulators, want 1", minted)
	}
	if got := s.AccumulatorsTracked(); got != 1 {
		t.Fatalf("AccumulatorsTracked = %d, want 1", got)
	}
	seen := false
	ok := s.ViewAccumulator("srv", func(acc Accumulator, version uint64) {
		seen = true
		if version != 3 {
			t.Errorf("version = %d, want 3", version)
		}
		if got := acc.(*recordingAcc).recs; !reflect.DeepEqual(got, recs) {
			t.Errorf("accumulator saw %v, want %v", got, recs)
		}
	})
	if !ok || !seen {
		t.Fatalf("ViewAccumulator: ok=%v seen=%v", ok, seen)
	}
	if s.ViewAccumulator("unknown", func(Accumulator, uint64) { t.Error("view called for unknown server") }) {
		t.Fatal("ViewAccumulator should report false for unknown servers")
	}
}

// TestAccumulatorFactoryReplaysExisting seeds the store first and checks the
// installation sweep replays existing histories.
func TestAccumulatorFactoryReplaysExisting(t *testing.T) {
	s := New()
	var want []feedback.Feedback
	for i := 0; i < 5; i++ {
		f := accFeedback("srv", "a", i, i%2 == 0)
		want = append(want, f)
		if _, err := s.Add(f); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	s.SetAccumulatorFactory(func(server feedback.EntityID) Accumulator {
		return &recordingAcc{server: server}
	})
	if got := s.AccumulatorsTracked(); got != 1 {
		t.Fatalf("AccumulatorsTracked = %d, want 1", got)
	}
	s.ViewAccumulator("srv", func(acc Accumulator, _ uint64) {
		if got := acc.(*recordingAcc).recs; !reflect.DeepEqual(got, want) {
			t.Errorf("replayed %v, want %v", got, want)
		}
	})
	// Removing the factory drops the accumulators.
	s.SetAccumulatorFactory(nil)
	if got := s.AccumulatorsTracked(); got != 0 {
		t.Fatalf("AccumulatorsTracked after removal = %d, want 0", got)
	}
	if s.ViewAccumulator("srv", func(Accumulator, uint64) {}) {
		t.Fatal("ViewAccumulator should report false after factory removal")
	}
}

// TestAccumulatorRebuiltOnOutOfOrderInsert writes records out of time order
// and checks the accumulator ends up reflecting the re-sorted history.
func TestAccumulatorRebuiltOnOutOfOrderInsert(t *testing.T) {
	s := New()
	s.SetAccumulatorFactory(func(server feedback.EntityID) Accumulator {
		return &recordingAcc{server: server}
	})
	f0 := accFeedback("srv", "a", 0, true)
	f1 := accFeedback("srv", "b", 1, false)
	f2 := accFeedback("srv", "c", 2, true)
	for _, f := range []feedback.Feedback{f0, f2, f1} { // f1 arrives late
		if _, err := s.Add(f); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	want := []feedback.Feedback{f0, f1, f2}
	s.ViewAccumulator("srv", func(acc Accumulator, _ uint64) {
		if got := acc.(*recordingAcc).recs; !reflect.DeepEqual(got, want) {
			t.Errorf("after out-of-order insert accumulator saw %v, want %v", got, want)
		}
	})
}

// newIncrementalAssessor builds the assessor pair used by the end-to-end and
// race tests: a multi tester over a fast calibrator plus the average trust
// function.
func newIncrementalAssessor(t testing.TB) *core.TwoPhase {
	t.Helper()
	cal := stats.NewCalibrator(stats.CalibrationConfig{Replicates: 120, Seed: 9}, 0)
	tester, err := behavior.NewMulti(behavior.Config{Calibrator: cal})
	if err != nil {
		t.Fatalf("NewMulti: %v", err)
	}
	tp, err := core.NewTwoPhase(tester, trust.Average{})
	if err != nil {
		t.Fatalf("NewTwoPhase: %v", err)
	}
	return tp
}

func coreFactory(t testing.TB, tp *core.TwoPhase) AccumulatorFactory {
	t.Helper()
	return func(server feedback.EntityID) Accumulator {
		sa, err := tp.NewServerAccumulator(server)
		if err != nil {
			t.Errorf("NewServerAccumulator: %v", err)
			return &recordingAcc{server: server}
		}
		return sa
	}
}

// TestStoreIncrementalMatchesBatch drives the full stack store-side: every
// few writes, the accumulator-served assessment must equal the batch
// assessment over the store's snapshot.
func TestStoreIncrementalMatchesBatch(t *testing.T) {
	tp := newIncrementalAssessor(t)
	s := New()
	s.SetAccumulatorFactory(coreFactory(t, tp))
	rng := stats.NewRNG(77)
	for i := 0; i < 220; i++ {
		client := feedback.EntityID(rune('a' + rng.Intn(6)))
		if _, err := s.Add(accFeedback("srv", client, i, rng.Float64() < 0.9)); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if i%7 != 0 {
			continue
		}
		var gotA core.Assessment
		var gotErr error
		ok := s.ViewAccumulator("srv", func(acc Accumulator, _ uint64) {
			gotA, gotErr = acc.(*core.ServerAccumulator).Assess()
		})
		if !ok {
			t.Fatal("ViewAccumulator: no accumulator")
		}
		h, _ := s.Snapshot("srv")
		wantA, wantErr := tp.Assess(h)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("n=%d: error mismatch: incremental=%v batch=%v", i+1, gotErr, wantErr)
		}
		if !reflect.DeepEqual(gotA, wantA) {
			t.Fatalf("n=%d: assessment mismatch:\nincremental: %+v\nbatch:       %+v", i+1, gotA, wantA)
		}
	}
}

// TestConcurrentAddAndAssess exercises the accumulator under the race
// detector: writers appending under the shard write lock while readers
// assess under the read lock.
func TestConcurrentAddAndAssess(t *testing.T) {
	tp := newIncrementalAssessor(t)
	s := New()
	s.SetAccumulatorFactory(coreFactory(t, tp))
	servers := []feedback.EntityID{"srv-a", "srv-b", "srv-c"}
	const perWriter = 150
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := stats.NewRNG(uint64(1000 + w))
			for i := 0; i < perWriter; i++ {
				srv := servers[w]
				client := feedback.EntityID(rune('a' + rng.Intn(5)))
				if _, err := s.Add(accFeedback(srv, client, w*perWriter+i, rng.Float64() < 0.9)); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				srv := servers[(r+i)%len(servers)]
				s.ViewAccumulator(srv, func(acc Accumulator, _ uint64) {
					if _, _, err := acc.(*core.ServerAccumulator).Accept(0.5); err != nil {
						t.Errorf("Accept: %v", err)
					}
				})
			}
		}()
	}
	// Writers finish, then stop the readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	go func() {
		// Readers loop until stop; wait for the three writers by polling the
		// record count.
		for s.Len() < 3*perWriter {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	<-done
	// Final consistency check per server.
	for _, srv := range servers {
		var got core.Assessment
		s.ViewAccumulator(srv, func(acc Accumulator, _ uint64) {
			got, _ = acc.(*core.ServerAccumulator).Assess()
		})
		h, _ := s.Snapshot(srv)
		want, _ := tp.Assess(h)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: final assessment mismatch:\nincremental: %+v\nbatch:       %+v", srv, got, want)
		}
	}
}

// shardMates returns distinct server IDs that all hash to one shard of s,
// plus the shard index — the grouping a batch assessor relies on.
func shardMates(s *Store, n int) (ids []feedback.EntityID, idx int) {
	idx = s.ShardIndex("srv-0")
	for i := 0; len(ids) < n; i++ {
		id := feedback.EntityID(fmt.Sprintf("srv-%d", i))
		if s.ShardIndex(id) == idx {
			ids = append(ids, id)
		}
	}
	return ids, idx
}

// TestShardIndexMatchesPlacement checks ShardIndex agrees with where Add
// actually puts records: a group view over the computed shard must see every
// server written to it.
func TestShardIndexMatchesPlacement(t *testing.T) {
	s := NewSharded(8)
	for i := 0; i < 50; i++ {
		id := feedback.EntityID(fmt.Sprintf("server-%d", i))
		if idx := s.ShardIndex(id); idx < 0 || idx >= s.NumShards() {
			t.Fatalf("ShardIndex(%q) = %d out of range", id, idx)
		}
		if _, err := s.Add(accFeedback(id, "c", i, true)); err != nil {
			t.Fatal(err)
		}
		seen := false
		s.ViewShard(s.ShardIndex(id), []feedback.EntityID{id}, func(_ int, _ Accumulator, snap *feedback.History, version uint64) {
			seen = snap != nil && snap.Len() == 1 && version == 1
		})
		if !seen {
			t.Fatalf("ViewShard(%d) did not observe %q", s.ShardIndex(id), id)
		}
	}
}

// TestViewShardGroup drives the batch read path: several servers of one
// shard viewed under a single lock acquisition must report exactly what the
// per-server Snapshot/ViewAccumulator reads report, with unknown servers as
// (nil, nil, 0) in their own slots.
func TestViewShardGroup(t *testing.T) {
	s := New()
	s.SetAccumulatorFactory(func(server feedback.EntityID) Accumulator {
		return &recordingAcc{server: server}
	})
	mates, idx := shardMates(s, 3)
	known := mates[:2]
	for i, id := range known {
		for j := 0; j <= i; j++ { // distinct history lengths per server
			if _, err := s.Add(accFeedback(id, "c", 10*i+j, true)); err != nil {
				t.Fatal(err)
			}
		}
	}
	group := []feedback.EntityID{known[0], mates[2], known[1]} // middle one unknown
	calls := 0
	s.ViewShard(idx, group, func(i int, acc Accumulator, snap *feedback.History, version uint64) {
		calls++
		id := group[i]
		if id == mates[2] {
			if acc != nil || snap != nil || version != 0 {
				t.Fatalf("unknown server slot = (%v, %v, %d)", acc, snap, version)
			}
			return
		}
		wantSnap, wantVersion := s.Snapshot(id)
		if version != wantVersion || snap.Len() != wantSnap.Len() {
			t.Fatalf("%s: got (len %d, v%d), want (len %d, v%d)",
				id, snap.Len(), version, wantSnap.Len(), wantVersion)
		}
		ra, ok := acc.(*recordingAcc)
		if !ok || ra.server != id || len(ra.recs) != snap.Len() {
			t.Fatalf("%s: accumulator = %+v", id, acc)
		}
	})
	if calls != len(group) {
		t.Fatalf("view called %d times, want %d", calls, len(group))
	}
}

// TestViewShardWrongShardPanics: misrouting a server to the wrong shard
// group must fail loudly, not silently report it unknown.
func TestViewShardWrongShardPanics(t *testing.T) {
	s := NewSharded(4)
	var stray feedback.EntityID
	for i := 0; ; i++ {
		stray = feedback.EntityID(fmt.Sprintf("srv-%d", i))
		if s.ShardIndex(stray) != 0 {
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ViewShard must panic on a misrouted server")
		}
	}()
	s.ViewShard(0, []feedback.EntityID{stray}, func(int, Accumulator, *feedback.History, uint64) {})
}

// TestSybilHistoryWidensSlots pushes one server's history past the 65,536
// distinct clients a 16-bit slot can name — a Sybil stream in which every
// record comes from a fresh identity — so that it widens to 32-bit slots
// (ADR 0011). Snapshots taken before the widening and the widened history
// must read their records — ClientAt included, on both sides of the 65,536th
// client — the widened history must round-trip through its column encoding,
// and the store's accumulator verdict must equal the two-phase assessment of
// the same records built from scratch.
func TestSybilHistoryWidensSlots(t *testing.T) {
	const n = 1<<16 + 700
	tp := newIncrementalAssessor(t)
	s := New()
	s.SetAccumulatorFactory(coreFactory(t, tp))
	rng := stats.NewRNG(31)
	ref := make([]feedback.Feedback, 0, n)
	type early struct {
		view *feedback.History
		ref  []feedback.Feedback
	}
	var views []early
	for i := 0; i < n; i++ {
		f := accFeedback("srv", feedback.EntityID(fmt.Sprintf("sybil-%d", i)), i, rng.Float64() < 0.9)
		if ok, err := s.Add(f); err != nil || !ok {
			t.Fatalf("Add %d: %v %v", i, ok, err)
		}
		ref = append(ref, f)
		if len(ref) == 1<<16-1 || len(ref) == 1<<16 {
			h, _ := s.Snapshot("srv")
			views = append(views, early{h, ref[:len(ref):len(ref)]})
		}
	}
	h, _ := s.Snapshot("srv")
	for _, e := range append(views, early{h, ref}) {
		if got := e.view.Records(); !reflect.DeepEqual(got, e.ref) {
			t.Fatalf("snapshot of %d records reads differently", len(e.ref))
		}
		for i := 1<<16 - 2; i < min(len(e.ref), 1<<16+2); i++ {
			if got := e.view.ClientAt(i); got != e.ref[i].Client {
				t.Fatalf("snapshot of %d records: ClientAt(%d) = %q, want %q", len(e.ref), i, got, e.ref[i].Client)
			}
		}
	}

	enc := h.AppendColumns(nil)
	dec, rest, err := feedback.DecodeColumns("srv", enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("DecodeColumns: %v, %d bytes left", err, len(rest))
	}
	if !reflect.DeepEqual(dec.AppendColumns(nil), enc) || !reflect.DeepEqual(dec.Records(), ref) {
		t.Fatal("widened history does not round-trip through its columns")
	}

	want, err := tp.Assess(histOf(t, "srv", ref))
	if err != nil {
		t.Fatal(err)
	}
	var got core.Assessment
	s.ViewAccumulator("srv", func(acc Accumulator, _ uint64) {
		got, err = acc.(*core.ServerAccumulator).Assess()
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("accumulator verdict %+v, want %+v", got, want)
	}
	for name, hist := range map[string]*feedback.History{"snapshot": h, "decoded": dec} {
		a, err := tp.Assess(hist)
		if err != nil || !reflect.DeepEqual(a, want) {
			t.Fatalf("%s verdict %+v (%v), want %+v", name, a, err, want)
		}
	}
}
