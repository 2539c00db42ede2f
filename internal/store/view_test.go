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

func accFeedback(server, client feedback.EntityID, i int, good bool) feedback.Feedback {
	rating := feedback.Negative
	if good {
		rating = feedback.Positive
	}
	return feedback.Feedback{Time: time.Unix(int64(i)+1, 0).UTC(), Server: server, Client: client, Rating: rating}
}

// newTestAssessor builds the assessor of the race and Sybil tests: a multi
// tester over a fast calibrator plus the average trust function.
func newTestAssessor(t testing.TB) *core.TwoPhase {
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

// TestAccumulatorShimsAreInert: the deprecated accumulator entry points
// keep compiling and do nothing — an installed factory is never called,
// ViewAccumulator views nothing and ViewShard's acc is nil.
func TestAccumulatorShimsAreInert(t *testing.T) {
	s := New()
	s.SetAccumulatorFactory(func(feedback.EntityID) Accumulator {
		t.Fatal("the factory was called")
		return nil
	})
	if _, err := s.Add(accFeedback("srv", "a", 0, true)); err != nil {
		t.Fatal(err)
	}
	if s.ViewAccumulator("srv", func(Accumulator, uint64) { t.Error("view called") }) {
		t.Fatal("ViewAccumulator reported an accumulator")
	}
	s.ViewShard(s.ShardIndex("srv"), []feedback.EntityID{"srv"}, func(_ int, acc Accumulator, snap *feedback.History, _ uint64) {
		if acc != nil || snap.Len() != 1 {
			t.Fatalf("ViewShard: acc %v, %d records", acc, snap.Len())
		}
	})
}

// TestConcurrentAddAndAssess runs writers appending under the shard write
// lock beside readers assessing the snapshots they take under the read
// lock, under the race detector; at the end every server's assessment is
// that of its records built from scratch.
func TestConcurrentAddAndAssess(t *testing.T) {
	tp := newTestAssessor(t)
	s := New()
	servers := []feedback.EntityID{"srv-a", "srv-b", "srv-c"}
	const perWriter = 150
	var writers, readers sync.WaitGroup
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			rng := stats.NewRNG(uint64(1000 + w))
			for i := 0; i < perWriter; i++ {
				client := feedback.EntityID(rune('a' + rng.Intn(5)))
				if _, err := s.Add(accFeedback(servers[w], client, w*perWriter+i, rng.Float64() < 0.9)); err != nil {
					t.Errorf("Add: %v", err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if h, _ := s.Snapshot(servers[(r+i)%len(servers)]); h.Len() > 0 {
					if _, _, err := tp.Accept(h, 0.5); err != nil {
						t.Errorf("Accept: %v", err)
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	for _, srv := range servers {
		h, _ := s.Snapshot(srv)
		got, err := tp.Assess(h)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tp.Assess(histOf(t, srv, h.Records()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: final assessment mismatch:\nsnapshot: %+v\nrebuilt:  %+v", srv, got, want)
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
// per-server Snapshot reads report, with unknown servers as (nil, 0) in
// their own slots.
func TestViewShardGroup(t *testing.T) {
	s := New()
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
		if acc != nil {
			t.Fatalf("%s: accumulator %v", id, acc)
		}
		if id == mates[2] {
			if snap != nil || version != 0 {
				t.Fatalf("unknown server slot = (%v, %d)", snap, version)
			}
			return
		}
		wantSnap, wantVersion := s.Snapshot(id)
		if version != wantVersion || !reflect.DeepEqual(snap.Records(), wantSnap.Records()) {
			t.Fatalf("%s: got (len %d, v%d), want (len %d, v%d)",
				id, snap.Len(), version, wantSnap.Len(), wantVersion)
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
// and the two-phase assessment of the store's snapshot and of the decoded
// history must equal that of the same records built from scratch.
func TestSybilHistoryWidensSlots(t *testing.T) {
	const n = 1<<16 + 700
	tp := newTestAssessor(t)
	s := New()
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
	for name, hist := range map[string]*feedback.History{"snapshot": h, "decoded": dec} {
		a, err := tp.Assess(hist)
		if err != nil || !reflect.DeepEqual(a, want) {
			t.Fatalf("%s verdict %+v (%v), want %+v", name, a, err, want)
		}
	}
}
