package store

import (
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/feedback"
)

func seedRecs(server feedback.EntityID, n int) []feedback.Feedback {
	base := time.Unix(1700000000, 0).UTC()
	out := make([]feedback.Feedback, n)
	for i := range out {
		r := feedback.Negative
		if i%3 != 0 {
			r = feedback.Positive
		}
		out[i] = feedback.Feedback{
			Server: server,
			Client: feedback.EntityID([]byte{'c', byte('a' + i%4)}),
			Rating: r,
			Time:   base.Add(time.Duration(i) * time.Second),
		}
	}
	return out
}

// histOf is recs, all of one server, as the history a snapshot section
// decodes to.
func histOf(t *testing.T, server feedback.EntityID, recs []feedback.Feedback) *feedback.History {
	t.Helper()
	h := feedback.NewHistory(server)
	for _, f := range recs {
		if err := h.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestSeedServerMatchesAdd proves a seeded store is indistinguishable from
// one built through Add: same histories, versions, checksums and dedup
// state.
func TestSeedServerMatchesAdd(t *testing.T) {
	recs := seedRecs("srv-seed", 25)
	added := NewSharded(4)
	for _, f := range recs {
		if ok, err := added.Add(f); !ok || err != nil {
			t.Fatalf("Add: %v %v", ok, err)
		}
	}

	seeded := NewSharded(4)
	if err := seeded.SeedServer(histOf(t, "srv-seed", recs)); err != nil {
		t.Fatalf("SeedServer: %v", err)
	}

	if !reflect.DeepEqual(added.Records("srv-seed"), seeded.Records("srv-seed")) {
		t.Fatal("records differ")
	}
	if av, sv := added.Version("srv-seed"), seeded.Version("srv-seed"); av != sv {
		t.Fatalf("versions differ: %d vs %d", av, sv)
	}
	if ac, sc := added.ServerChecksum("srv-seed"), seeded.ServerChecksum("srv-seed"); ac != sc {
		t.Fatalf("checksums differ: %+v vs %+v", ac, sc)
	}
	if added.Len() != seeded.Len() || added.GlobalVersion() != seeded.GlobalVersion() {
		t.Fatal("totals differ")
	}
	// Duplicates of seeded records must be suppressed exactly like Add's.
	if ok, err := seeded.Add(recs[3]); ok || err != nil {
		t.Fatalf("duplicate accepted after seed: %v %v", ok, err)
	}
}

// TestSeedServerRejects checks the strict preconditions: out-of-order or
// duplicate records and double seeding fail atomically. (A record of another
// server cannot be in the history to begin with: Append refuses it.)
func TestSeedServerRejects(t *testing.T) {
	recs := seedRecs("srv-rej", 5)
	s := NewSharded(2)

	swapped := append([]feedback.Feedback(nil), recs...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if err := s.SeedServer(histOf(t, "srv-rej", swapped)); err == nil {
		t.Fatal("out-of-order seed accepted")
	}
	if s.Len() != 0 || s.Version("srv-rej") != 0 {
		t.Fatal("failed seed left state behind")
	}

	if err := s.SeedServer(histOf(t, "srv-rej", recs)); err != nil {
		t.Fatal(err)
	}
	if err := s.SeedServer(histOf(t, "srv-rej", recs)); err == nil {
		t.Fatal("double seed accepted")
	}
	if s.Len() != len(recs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(recs))
	}
}

// TestSnapshotShard checks the walk covers every server of the shard, in
// sorted order, with the memoized snapshot and version.
func TestSnapshotShard(t *testing.T) {
	s := NewSharded(3)
	servers := []feedback.EntityID{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, srv := range servers {
		for _, f := range seedRecs(srv, 4) {
			if ok, err := s.Add(f); !ok || err != nil {
				t.Fatalf("Add: %v %v", ok, err)
			}
		}
	}
	got := map[feedback.EntityID]int{}
	for idx := 0; idx < s.NumShards(); idx++ {
		var prev feedback.EntityID
		s.SnapshotShard(idx, func(ent ShardEntry) {
			if prev != "" && ent.Server <= prev {
				t.Fatalf("shard %d: unsorted walk: %q after %q", idx, ent.Server, prev)
			}
			prev = ent.Server
			if s.ShardIndex(ent.Server) != idx {
				t.Fatalf("server %q visited on wrong shard", ent.Server)
			}
			if ent.Snap.Len() != 4 || ent.Version != 4 || ent.Count != 4 {
				t.Fatalf("server %q: len %d version %d count %d", ent.Server, ent.Snap.Len(), ent.Version, ent.Count)
			}
			if ent.SizeBytes <= 0 {
				t.Fatalf("server %q: accounted size %d", ent.Server, ent.SizeBytes)
			}
			got[ent.Server] = ent.Snap.Len()
		})
	}
	if len(got) != len(servers) {
		t.Fatalf("walked %d servers, want %d", len(got), len(servers))
	}
}
