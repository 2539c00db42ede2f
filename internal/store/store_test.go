package store

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"honestplayer/internal/feedback"
)

func rec(s, c feedback.EntityID, good bool, at int64) feedback.Feedback {
	r := feedback.Negative
	if good {
		r = feedback.Positive
	}
	return feedback.Feedback{Time: time.Unix(at, 0).UTC(), Server: s, Client: c, Rating: r}
}

func TestHashOfDistinguishes(t *testing.T) {
	a := rec("s", "c", true, 1)
	tests := []feedback.Feedback{
		rec("s", "c", true, 2),  // time differs
		rec("s", "c", false, 1), // rating differs
		rec("s2", "c", true, 1), // server differs
		rec("s", "c2", true, 1), // client differs
	}
	for i, b := range tests {
		if HashOf(a) == HashOf(b) {
			t.Errorf("case %d: hash collision for distinct records", i)
		}
	}
	if HashOf(a) != HashOf(rec("s", "c", true, 1)) {
		t.Error("identical records must hash equal")
	}
}

// TestHashOfIsFNV1a pins the content hash to hash/fnv's FNV-1a over the
// time's eight bytes, little-endian, the rating byte, the server id, a zero
// byte and the client id — the values gossip peers and stubs compare — and
// the hashes a batch and a history compute from their columns to HashOf.
func TestHashOfIsFNV1a(t *testing.T) {
	reference := func(f feedback.Feedback) Hash {
		h := fnv.New64a()
		_ = binary.Write(h, binary.LittleEndian, f.Time.UnixNano())
		_, _ = h.Write([]byte{byte(f.Rating)})
		_, _ = h.Write([]byte(string(f.Server) + "\x00" + string(f.Client)))
		return Hash(h.Sum64())
	}
	var recs []feedback.Feedback
	for i := range 11 {
		recs = append(recs, feedback.Feedback{
			Time:   time.Unix(int64(i)*7919-40000, int64(i)*104729).UTC(),
			Server: "srv-7",
			Client: feedback.EntityID(strings.Repeat("c", 1+i*i%7)),
			Rating: feedback.Rating(1 + i%2),
		})
	}
	for _, f := range recs {
		if got, want := HashOf(f), reference(f); got != want {
			t.Fatalf("HashOf(%v) = %#x, FNV-1a says %#x", f, got, want)
		}
	}
	// A batch and a history hash from their columns.
	b, errs := feedback.Pack(recs)
	if errs != nil {
		t.Fatal(errs)
	}
	h := feedback.NewHistory("srv-7")
	for _, f := range recs {
		if err := h.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	for i, f := range recs {
		if want := HashOf(f); Hash(b.Hash(i)) != want || HashAt(h, i) != want {
			t.Fatalf("record %d: batch %#x, history %#x, HashOf %#x", i, b.Hash(i), HashAt(h, i), want)
		}
	}
}

func TestHashOfFieldBoundary(t *testing.T) {
	// ("ab","c") must differ from ("a","bc"): the separator matters.
	a := rec("ab", "c", true, 1)
	b := rec("a", "bc", true, 1)
	if HashOf(a) == HashOf(b) {
		t.Fatal("field-boundary hash collision")
	}
}

func TestStoreAddAndDedup(t *testing.T) {
	s := New()
	ok, err := s.Add(rec("srv", "c1", true, 1))
	if err != nil || !ok {
		t.Fatalf("first add: %v %v", ok, err)
	}
	ok, err = s.Add(rec("srv", "c1", true, 1))
	if err != nil || ok {
		t.Fatalf("duplicate add: %v %v", ok, err)
	}
	if s.Len() != 1 || s.ServerLen("srv") != 1 {
		t.Fatalf("len = %d / %d", s.Len(), s.ServerLen("srv"))
	}
}

func TestStoreAddInvalid(t *testing.T) {
	s := New()
	if _, err := s.Add(feedback.Feedback{}); err == nil {
		t.Fatal("invalid record must fail")
	}
}

func TestStoreTimeOrdering(t *testing.T) {
	s := New()
	// Insert out of order.
	for _, at := range []int64{5, 1, 3, 2, 4} {
		if _, err := s.Add(rec("srv", "c", at%2 == 0, at)); err != nil {
			t.Fatal(err)
		}
	}
	recs := s.Records("srv")
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			t.Fatalf("records out of order: %v", recs)
		}
	}
	h, err := s.History("srv")
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 5 {
		t.Fatalf("history len = %d", h.Len())
	}
}

func TestStoreHistoryUnknownServer(t *testing.T) {
	s := New()
	h, err := s.History("nobody")
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 0 {
		t.Fatal("unknown server must have empty history")
	}
}

func TestStoreServers(t *testing.T) {
	s := New()
	_, _ = s.Add(rec("b", "c", true, 1))
	_, _ = s.Add(rec("a", "c", true, 1))
	got := s.Servers()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Servers = %v", got)
	}
}

func TestStoreAddAll(t *testing.T) {
	s := New()
	recs := []feedback.Feedback{
		rec("srv", "c1", true, 1),
		rec("srv", "c1", true, 1), // dup
		rec("srv", "c2", false, 2),
	}
	added, err := s.AddAll(recs)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("added = %d", added)
	}
	// Error propagates with partial insert count.
	added, err = s.AddAll([]feedback.Feedback{rec("x", "c", true, 9), {}})
	if err == nil {
		t.Fatal("invalid record must fail")
	}
	if added != 1 {
		t.Fatalf("partial added = %d", added)
	}
}

func TestStoreConcurrentAdds(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_, err := s.Add(rec("srv", feedback.EntityID(rune('a'+g)), i%2 == 0, int64(g*1000+i)))
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("len = %d, want 800", s.Len())
	}
	recs := s.Records("srv")
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			t.Fatal("concurrent inserts broke time ordering")
		}
	}
}

// Property: two stores that ingest the same multiset of records in
// different orders converge to identical state (the gossip convergence
// invariant).
func TestStoreOrderIndependence(t *testing.T) {
	f := func(raw []uint8) bool {
		recs := make([]feedback.Feedback, len(raw))
		for i, r := range raw {
			recs[i] = rec(
				feedback.EntityID(rune('s'+r%3)),
				feedback.EntityID(rune('a'+r%7)),
				r%2 == 0,
				int64(r),
			)
		}
		a, b := New(), New()
		if _, err := a.AddAll(recs); err != nil {
			return false
		}
		// Reverse order into b.
		for i := len(recs) - 1; i >= 0; i-- {
			if _, err := b.Add(recs[i]); err != nil {
				return false
			}
		}
		if a.Len() != b.Len() {
			return false
		}
		for _, srv := range a.Servers() {
			ra, rb := a.Records(srv), b.Records(srv)
			if len(ra) != len(rb) {
				return false
			}
			for i := range ra {
				if HashOf(ra[i]) != HashOf(rb[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestStoreVersionCounter(t *testing.T) {
	s := New()
	if v := s.Version("srv"); v != 0 {
		t.Fatalf("unknown server version = %d", v)
	}
	if _, err := s.Add(rec("srv", "c1", true, 1)); err != nil {
		t.Fatal(err)
	}
	if v := s.Version("srv"); v != 1 {
		t.Fatalf("version after first add = %d", v)
	}
	// Duplicates are not accepted writes and must not bump the version.
	if ok, _ := s.Add(rec("srv", "c1", true, 1)); ok {
		t.Fatal("duplicate accepted")
	}
	if v := s.Version("srv"); v != 1 {
		t.Fatalf("version after duplicate = %d", v)
	}
	// Out-of-order inserts bump too.
	if _, err := s.Add(rec("srv", "c2", true, 0)); err != nil {
		t.Fatal(err)
	}
	if v := s.Version("srv"); v != 2 {
		t.Fatalf("version after out-of-order add = %d", v)
	}
	// Versions are per server.
	if v := s.Version("other"); v != 0 {
		t.Fatalf("other server version = %d", v)
	}
	if g := s.GlobalVersion(); g != 2 {
		t.Fatalf("global version = %d", g)
	}
}

func TestStoreSnapshotImmutable(t *testing.T) {
	s := New()
	for i := 0; i < 10; i++ {
		if _, err := s.Add(rec("srv", "c", i%2 == 0, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	snap, ver := s.Snapshot("srv")
	if snap.Len() != 10 || ver != 10 {
		t.Fatalf("snapshot len=%d ver=%d", snap.Len(), ver)
	}
	wantGood := snap.GoodCount()
	// Later writes — both appends and an out-of-order insert that rebuilds —
	// must not disturb the earlier snapshot.
	if _, err := s.Add(rec("srv", "c", true, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Add(rec("srv", "zzz", true, 5)); err != nil {
		t.Fatal(err)
	}
	if snap.Len() != 10 || snap.GoodCount() != wantGood {
		t.Fatalf("snapshot mutated: len=%d good=%d", snap.Len(), snap.GoodCount())
	}
	for i := 0; i < snap.Len(); i++ {
		if snap.At(i).Client == "zzz" {
			t.Fatal("later insert leaked into old snapshot")
		}
	}
	if h2, ver2 := s.Snapshot("srv"); h2.Len() != 12 || ver2 != 12 {
		t.Fatalf("new snapshot len=%d ver=%d", h2.Len(), ver2)
	}
}

// TestStoreShardedConcurrentMixed hammers Add, History, Records, Checksums,
// Hashes and Version across many servers (hence shards) in parallel. Run
// under -race this is the store's main concurrency regression test.
func TestStoreShardedConcurrentMixed(t *testing.T) {
	s := NewSharded(8)
	const writers, perWriter, servers = 8, 200, 13
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				srv := feedback.EntityID(rune('A' + (g*perWriter+i)%servers))
				_, err := s.Add(rec(srv, feedback.EntityID(rune('a'+g)), i%3 == 0, int64(g*10000+i)))
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Readers run concurrently with the writers.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				srv := feedback.EntityID(rune('A' + i%servers))
				h, ver := s.Snapshot(srv)
				if uint64(h.Len()) > ver {
					t.Errorf("snapshot len %d > version %d", h.Len(), ver)
					return
				}
				_ = h.GoodRatio()
				_ = s.Records(srv)
				_ = s.Checksums()
				_ = s.Len()
			}
		}()
	}
	wg.Wait()
	if s.Len() != writers*perWriter {
		t.Fatalf("len = %d, want %d", s.Len(), writers*perWriter)
	}
	// Per-server order survived the concurrency.
	for i := 0; i < servers; i++ {
		srv := feedback.EntityID(rune('A' + i))
		recs := s.Records(srv)
		for j := 1; j < len(recs); j++ {
			if recs[j].Time.Before(recs[j-1].Time) {
				t.Fatalf("server %s out of order", srv)
			}
		}
	}
	// Checksums agree with a fresh single-shard ingest of the same records.
	ref := NewSharded(1)
	for _, srv := range s.Servers() {
		if _, err := ref.AddAll(s.Records(srv)); err != nil {
			t.Fatal(err)
		}
	}
	want := ref.Checksums()
	got := s.Checksums()
	if len(got) != len(want) {
		t.Fatalf("checksum servers: %d vs %d", len(got), len(want))
	}
	for srv, cs := range want {
		if got[srv] != cs {
			t.Fatalf("checksum mismatch for %s: %+v vs %+v", srv, got[srv], cs)
		}
	}
}

// Shard count must not change any observable content.
func TestStoreShardCountInvariance(t *testing.T) {
	recs := benchRecsMulti(300, 7)
	for _, shards := range []int{1, 3, 16} {
		s := NewSharded(shards)
		if got := s.NumShards(); got != shards {
			t.Fatalf("NumShards = %d", got)
		}
		if _, err := s.AddAll(recs); err != nil {
			t.Fatal(err)
		}
		ref := NewSharded(1)
		if _, err := ref.AddAll(recs); err != nil {
			t.Fatal(err)
		}
		if s.Len() != ref.Len() {
			t.Fatalf("shards=%d: len %d vs %d", shards, s.Len(), ref.Len())
		}
		gotServers, wantServers := s.Servers(), ref.Servers()
		if len(gotServers) != len(wantServers) {
			t.Fatalf("shards=%d: servers %v vs %v", shards, gotServers, wantServers)
		}
		if got, want := s.Checksums(), ref.Checksums(); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: checksums %v vs %v", shards, got, want)
		}
	}
}

func TestServerChecksum(t *testing.T) {
	s := New()
	if got := s.ServerChecksum("nobody"); got != (Checksum{}) {
		t.Fatalf("unknown server checksum = %+v; want zero", got)
	}
	recs := []feedback.Feedback{
		rec("a", "c1", true, 10),
		rec("a", "c2", false, 20),
		rec("a", "c3", true, 30),
	}
	for _, f := range recs {
		if _, err := s.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	got := s.ServerChecksum("a")
	var wantXOR uint64
	for _, f := range recs {
		wantXOR ^= uint64(HashOf(f))
	}
	if got.Count != 3 || got.XOR != wantXOR {
		t.Fatalf("checksum = %+v; want count 3 xor %d", got, wantXOR)
	}
	// A duplicate changes nothing; the checksum is order-independent, so a
	// second store fed the same records in reverse agrees.
	if _, err := s.Add(recs[0]); err != nil {
		t.Fatal(err)
	}
	if again := s.ServerChecksum("a"); again != got {
		t.Fatalf("checksum moved on duplicate: %+v != %+v", again, got)
	}
	s2 := New()
	for i := len(recs) - 1; i >= 0; i-- {
		if _, err := s2.Add(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if other := s2.ServerChecksum("a"); other != got {
		t.Fatalf("checksum order-dependent: %+v != %+v", other, got)
	}
	if per := s.Checksums()["a"]; per != got {
		t.Fatalf("Checksums()[a] = %+v; ServerChecksum = %+v", per, got)
	}
}
