package store

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"honestplayer/internal/feedback"
)

// orderStream turns fuzz bytes into a write stream over three servers of
// one shard with only eight distinct times, so it is dense in equal-time
// runs, exact duplicates and out-of-order arrivals.
func orderStream(data []byte) []feedback.Feedback {
	var recs []feedback.Feedback
	for i := 0; i+1 < len(data); i += 2 {
		a, b := data[i], data[i+1]
		recs = append(recs, feedback.Feedback{
			Time:   time.Unix(1_700_000_000+int64(b%8), 0).UTC(),
			Server: feedback.EntityID(fmt.Sprintf("s%d", a%3)),
			Client: feedback.EntityID(fmt.Sprintf("c%d", a>>2%4)),
			Rating: feedback.Rating(1 + b>>3%2),
		})
	}
	return recs
}

// lessRecord is the store's order as the replaced design spelled it: by
// time.Time, then by content hash.
func lessRecord(a, b feedback.Feedback) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return HashOf(a) < HashOf(b)
}

// FuzzAddOrder holds the store, which finds duplicates and positions in the
// sorted history itself, against the design it replaced: a hash set that
// says "seen" plus a sorted insert under time-then-hash. Same Stored bools,
// same final order, same version and XOR.
// (A 64-bit collision between two servers, which the set would have dropped
// and the history keeps, is not constructible here: the hash covers the
// server.)
func FuzzAddOrder(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 1, 4, 1, 8, 1, 12, 1, 0, 0, 1, 5, 1, 3, 2, 7, 2, 7})
	f.Add([]byte{0, 7, 0, 6, 0, 5, 0, 4, 0, 3, 0, 2, 0, 1, 0, 0, 4, 3, 8, 3, 12, 3, 16, 11})
	f.Add([]byte{3, 1, 7, 1, 11, 1, 15, 1, 3, 9, 7, 9, 11, 9, 15, 9, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := orderStream(data)
		st := NewSharded(1)

		seen := make(map[Hash]struct{})
		want := make(map[feedback.EntityID][]feedback.Feedback)
		stored := make([]bool, len(recs))
		for i, r := range recs {
			h := HashOf(r)
			_, dup := seen[h]
			if !dup {
				seen[h] = struct{}{}
				hist := want[r.Server]
				pos := sort.Search(len(hist), func(j int) bool { return lessRecord(r, hist[j]) })
				hist = append(hist, feedback.Feedback{})
				copy(hist[pos+1:], hist[pos:])
				hist[pos] = r
				want[r.Server] = hist
			}
			stored[i] = !dup
			got, err := st.Add(r)
			if err != nil || got == dup {
				t.Fatalf("record %d %v: Add = %v, %v; reference stored %v", i, r, got, err, !dup)
			}
		}

		for srv, hist := range want {
			if got := st.Records(srv); !reflect.DeepEqual(got, hist) {
				t.Fatalf("%s holds %v, want %v", srv, got, hist)
			}
			var xor uint64
			for _, r := range hist {
				xor ^= uint64(HashOf(r))
			}
			if cs := st.ServerChecksum(srv); cs.Count != len(hist) || cs.XOR != xor || st.Version(srv) != uint64(len(hist)) {
				t.Fatalf("%s: checksum %+v version %d, want %d records xor %x", srv, cs, st.Version(srv), len(hist), xor)
			}
		}
		if st.Len() != len(seen) {
			t.Fatalf("store holds %d records, want %d", st.Len(), len(seen))
		}

		batch := NewSharded(1)
		for i, res := range batch.AddBatch(recs, 1) {
			if res.Err != nil || res.Stored != stored[i] {
				t.Fatalf("AddBatch record %d: %+v, want stored %v", i, res, stored[i])
			}
		}
		for srv, hist := range want {
			if got := batch.Records(srv); !reflect.DeepEqual(got, hist) {
				t.Fatalf("AddBatch: %s holds %v, want %v", srv, got, hist)
			}
		}
	})
}

// TestSeedRejectsUnsortedAndRepeated: a strictly increasing (time, hash)
// check is all the seed needs to refuse what a dedup set used to catch, and
// a refused seed leaves no trace.
func TestSeedRejectsUnsortedAndRepeated(t *testing.T) {
	a, b := rec("s", "a", true, 5), rec("s", "b", true, 5)
	if HashOf(b) < HashOf(a) {
		a, b = b, a
	}
	later := rec("s", "a", true, 6)
	for name, recs := range map[string][]feedback.Feedback{
		"repeated":       {a, b, b, later},
		"tie by hash":    {b, a, later},
		"time backwards": {a, later, b},
	} {
		st := NewSharded(1)
		if err := st.SeedServer(histOf(t, "s", recs)); err == nil {
			t.Errorf("%s: seed accepted", name)
		}
		if st.Len() != 0 || st.ResidentBytes() != 0 || len(st.Servers()) != 0 {
			t.Errorf("%s: refused seed left state behind", name)
		}
		if err := st.SeedServer(histOf(t, "s", []feedback.Feedback{a, b, later})); err != nil {
			t.Errorf("%s: clean seed after a refused one: %v", name, err)
		}
	}
}

// heapAlloc is the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestResidentBytesTracksHeap: what the budget governor charges is what the
// heap holds, within a quarter, when records arrive as the wire delivers
// them — decoded one by one, every string freshly allocated — both for a
// pool of 100 clients and for a stream in which every record names a new
// client (the dictionary's worst case).
func TestResidentBytesTracksHeap(t *testing.T) {
	const servers, perServer = 64, 2000
	for name, clientOf := range map[string]func(i int) string{
		"pool of 100":  func(i int) string { return fmt.Sprintf("cli-%d", i*7919%100) },
		"all distinct": func(i int) string { return fmt.Sprintf("cli-%d", i) },
	} {
		t.Run(name, func(t *testing.T) {
			var enc []byte
			for i := 0; i < servers*perServer; i++ {
				var err error
				enc, err = feedback.AppendBinary(enc, feedback.Feedback{
					Time:   time.Unix(1_700_000_000+int64(i), 0),
					Server: feedback.EntityID(fmt.Sprintf("srv-%03d", i%servers)),
					Client: feedback.EntityID(clientOf(i)),
					Rating: feedback.Rating(1 + i%2),
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			st := New()
			before := heapAlloc()
			for rest := enc; len(rest) > 0; {
				var f feedback.Feedback
				var err error
				if f, rest, err = feedback.DecodeBinary(rest); err != nil {
					t.Fatal(err)
				}
				if ok, err := st.Add(f); err != nil || !ok {
					t.Fatalf("Add: %v %v", ok, err)
				}
			}
			grown := float64(heapAlloc() - before)
			accounted := float64(st.ResidentBytes())
			t.Logf("accounted %.1f B/record, heap grew %.1f B/record", accounted/float64(st.Len()), grown/float64(st.Len()))
			if ratio := accounted / grown; ratio < 0.75 || ratio > 1.25 {
				t.Errorf("accounted %.0f B, heap grew %.0f B (ratio %.2f)", accounted, grown, ratio)
			}
			// 130 B is what a record of either stream cost in the []Feedback
			// layout with its shard-wide hash set (ADR 0004). A pool's record
			// is mostly its columns: 20.6 B of heap at 17 B a record, 13.6 B
			// bit-packed (ADR 0011), 6.9 B with 32-bit time quotients (ADR
			// 0018). A distinct client's dictionary entry took 104 B of heap
			// with a string header and a map slot, and ~36 B as name bytes,
			// an end offset and a table slot (ADR 0012); beside a 4-byte
			// time that record is ~30 B.
			ceiling := 32.0
			if name == "pool of 100" {
				ceiling = 7.5
			}
			if per := grown / float64(st.Len()); per > ceiling {
				t.Errorf("%.1f B of heap per record, ceiling %.0f", per, ceiling)
			}
			runtime.KeepAlive(st)
			runtime.KeepAlive(enc)
		})
	}
}
