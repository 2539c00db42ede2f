package feedback

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// batchOf builds n records over the given servers and clients with times
// that repeat, step backwards and start before 1970.
func batchOf(n int, servers, clients []EntityID) []Feedback {
	recs := make([]Feedback, n)
	for i := range recs {
		recs[i] = Feedback{
			Time:   time.Unix(int64(i/2-3), int64(i%3)*7).UTC(),
			Server: servers[i%len(servers)],
			Client: clients[(i*3+1)%len(clients)],
			Rating: Rating(1 + i%3%2),
		}
	}
	return recs
}

// TestBatchRoundTripSharesDictionary: a run of batches against one pair of
// dictionaries decodes to the records that went in, the encoder's and the
// decoder's dictionaries stay in step, and from the second batch on an id
// costs its slot.
func TestBatchRoundTripSharesDictionary(t *testing.T) {
	servers := []EntityID{"srv-a", "srv-b", "srv-c"}
	clients := []EntityID{"alice", "bob", "carol", "dave", "erin"}
	var enc, dec BatchDicts
	var sizes []int
	for round := 0; round < 3; round++ {
		recs := batchOf(40, servers, clients)
		buf, err := AppendBatch(nil, recs, &enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBatch(buf, &dec, nil)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("round %d: decoded records differ", round)
		}
		sizes = append(sizes, len(buf))
	}
	if s, c := enc.Len(); s != len(servers) || c != len(clients) {
		t.Fatalf("encoder dictionaries hold %d servers, %d clients", s, c)
	}
	if s, c := dec.Len(); s != len(servers) || c != len(clients) {
		t.Fatalf("decoder dictionaries hold %d servers, %d clients", s, c)
	}
	var idBytes int
	for _, id := range append(servers, clients...) {
		idBytes += 1 + len(id)
	}
	if sizes[1] != sizes[0]-idBytes || sizes[2] != sizes[1] {
		t.Fatalf("batch sizes %v: a warm dictionary should save the %d id bytes", sizes, idBytes)
	}

	// An empty batch is one byte and decodes to nothing, touching nothing.
	empty, err := AppendBatch(nil, nil, &enc)
	if err != nil || !bytes.Equal(empty, []byte{0}) {
		t.Fatalf("empty batch = %x, %v", empty, err)
	}
	if got, err := DecodeBatch(empty, &dec, nil); err != nil || got != nil {
		t.Fatalf("empty batch decoded to %v, %v", got, err)
	}
}

// TestBatchGoldenBytes pins the layout, and the unscaled time column of
// ledger segment v2 beside it.
func TestBatchGoldenBytes(t *testing.T) {
	recs := []Feedback{
		{Time: time.Unix(0, 100).UTC(), Server: "s1", Client: "c1", Rating: Positive},
		{Time: time.Unix(0, 106).UTC(), Server: "s2", Client: "c1", Rating: Negative},
		{Time: time.Unix(0, 102).UTC(), Server: "s1", Client: "c2", Rating: Positive},
	}
	ids := []byte{
		0, 2, 's', '1', 1, 2, 's', '2', 0, // servers: new "s1", new "s2", slot 0
		0, 2, 'c', '1', 0, 1, 2, 'c', '2', // clients: new "c1", slot 0, new "c2"
		0b101, // good
	}
	for _, c := range []struct {
		unscaled bool
		times    []byte
	}{
		{false, []byte{0xc8, 1, 2, 6, 3}}, // zig-zag 100, scale 2, +6/2, -4/2
		{true, []byte{0xc8, 1, 12, 7}},    // zig-zag 100, +6, -4
	} {
		want := append(append([]byte{3}, c.times...), ids...)
		got, err := AppendBatch(nil, recs, &BatchDicts{Unscaled: c.unscaled})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("unscaled %v: layout moved:\n got %x\nwant %x", c.unscaled, got, want)
		}
		if back, err := DecodeBatch(got, &BatchDicts{Unscaled: c.unscaled}, nil); err != nil || !reflect.DeepEqual(back, recs) {
			t.Fatalf("unscaled %v: decoded %v, %v", c.unscaled, back, err)
		}
	}
}

// TestBatchDecodeStrict: the decoder accepts the encoder's output and
// nothing else, and a refused batch leaves the dictionaries untouched.
func TestBatchDecodeStrict(t *testing.T) {
	warm := func() *BatchDicts {
		var d BatchDicts
		if _, err := AppendBatch(nil, []Feedback{{Time: time.Unix(1, 0), Server: "s", Client: "c", Rating: Positive}}, &d); err != nil {
			t.Fatal(err)
		}
		return &d
	}
	for name, in := range map[string][]byte{
		"empty input":             {},
		"count beyond the bytes":  binary.AppendUvarint(nil, 1<<40),
		"padded count":            {0x81, 0, 2, 0, 1, 'x', 0, 1, 'y', 1},
		"padded time":             {1, 0x82, 0, 0, 0, 1},
		"slot past the end":       {1, 2, 2, 0, 1},
		"empty id":                {1, 2, 1, 0, 0, 1},
		"id past the bytes":       {1, 2, 1, 9, 'x', 0, 1},
		"known id introduced":     {1, 2, 1, 1, 's', 0, 1},
		"client column missing":   {1, 2, 0},
		"bitmap missing":          {1, 2, 0, 0},
		"bitmap padding set":      {1, 2, 0, 0, 3},
		"trailing byte":           {1, 2, 0, 0, 1, 0},
		"half a batch introduces": {2, 2, 2, 1, 1, 'n', 7, 0, 0, 0},
	} {
		d := warm()
		dst := []Feedback{{Server: "kept"}}
		got, err := DecodeBatch(in, d, dst)
		if !errors.Is(err, ErrCorruptRecord) {
			t.Errorf("%s: err = %v, want ErrCorruptRecord", name, err)
		}
		if len(got) != 1 || got[0].Server != "kept" {
			t.Errorf("%s: dst came back as %v", name, got)
		}
		if s, c := d.Len(); s != 1 || c != 1 {
			t.Errorf("%s: a refused batch left %d servers, %d clients in the dictionaries", name, s, c)
		}
		if _, ok := d.servers.slot["n"]; ok {
			t.Errorf("%s: a refused batch's id is still indexed", name)
		}
	}
	// The valid neighbour of the cases above.
	if got, err := DecodeBatch([]byte{1, 2, 0, 0, 1}, warm(), nil); err != nil || len(got) != 1 || got[0].Server != "s" {
		t.Fatalf("valid batch: %v, %v", got, err)
	}
}

// TestAppendBatchRefusesWhole: one bad record fails the batch before a byte
// is written or an id remembered.
func TestAppendBatchRefusesWhole(t *testing.T) {
	good := Feedback{Time: time.Unix(1, 0), Server: "s", Client: "c", Rating: Positive}
	long := EntityID(strings.Repeat("x", maxEntityLen+1))
	for name, bad := range map[string]Feedback{
		"invalid rating": {Time: time.Unix(1, 0), Server: "s", Client: "c"},
		"empty client":   {Time: time.Unix(1, 0), Server: "s", Rating: Negative},
		"zero time":      {Server: "s", Client: "c", Rating: Negative},
		"long server":    {Time: time.Unix(1, 0), Server: long, Client: "c", Rating: Negative},
	} {
		var d BatchDicts
		if buf, err := AppendBatch([]byte("head"), []Feedback{good, bad}, &d); err == nil || buf != nil {
			t.Errorf("%s: AppendBatch = %x, %v", name, buf, err)
		}
		if s, c := d.Len(); s != 0 || c != 0 {
			t.Errorf("%s: a refused batch reached the dictionaries", name)
		}
	}
	atLimit := Feedback{Time: time.Unix(1, 0).UTC(), Server: long[1:], Client: long[1:], Rating: Negative}
	buf, err := AppendBatch(nil, []Feedback{atLimit}, new(BatchDicts))
	if err != nil {
		t.Fatalf("ids at the limit: %v", err)
	}
	if got, err := DecodeBatch(buf, new(BatchDicts), nil); err != nil || !reflect.DeepEqual(got, []Feedback{atLimit}) {
		t.Fatalf("ids at the limit did not round-trip: %v", err)
	}
}

// TestBatchDictionaryCap: past MaxBatchDict ids a column stops remembering —
// on both sides — and a stream of fresh ids still round-trips.
func TestBatchDictionaryCap(t *testing.T) {
	var enc, dec BatchDicts
	const total = MaxBatchDict + 5000
	for start := 0; start < total; start += 1000 {
		recs := make([]Feedback, 1000)
		for i := range recs {
			recs[i] = Feedback{
				Time:   time.Unix(int64(start+i), 0).UTC(),
				Server: "srv",
				Client: EntityID(fmt.Sprintf("sybil-%d", start+i)),
				Rating: Negative,
			}
		}
		if start+1000 >= total {
			// Ids from before and after the cap, again: the first is a slot,
			// the second is spelled out a second time.
			recs[0].Client, recs[1].Client = "sybil-0", EntityID(fmt.Sprintf("sybil-%d", MaxBatchDict+1))
		}
		buf, err := AppendBatch(nil, recs, &enc)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeBatch(buf, &dec, nil)
		if err != nil {
			t.Fatalf("batch at %d: %v", start, err)
		}
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("batch at %d: decoded records differ", start)
		}
	}
	for name, d := range map[string]*BatchDicts{"encoder": &enc, "decoder": &dec} {
		if s, c := d.Len(); s != 1 || c != MaxBatchDict || len(d.clients.slot) != MaxBatchDict {
			t.Errorf("%s: %d servers, %d clients (%d indexed), want 1 and the cap", name, s, c, len(d.clients.slot))
		}
	}
}

// TestDecodeBatchInterns: a record whose ids the dictionary holds costs no
// allocation of its own.
func TestDecodeBatchInterns(t *testing.T) {
	recs := batchOf(1000, []EntityID{"srv-a", "srv-b"}, []EntityID{"alice", "bob", "carol"})
	var enc, dec BatchDicts
	first, err := AppendBatch(nil, recs, &enc)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := AppendBatch(nil, recs, &enc)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := DecodeBatch(first, &dec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if dst, err = DecodeBatch(warm, &dec, dst[:0]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("decoding 1000 records over known ids allocated %.0f times", n)
	}
}

// TestHostileBatchCountAllocatesNothing: a count is believed only as far as
// the bytes behind it go, before anything is allocated for it.
func TestHostileBatchCountAllocatesNothing(t *testing.T) {
	in := append(binary.AppendUvarint(nil, 1<<30), make([]byte, 1<<20)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBatch(in, new(BatchDicts), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile count accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 { // the count asked for 64 GiB
		t.Errorf("refusing a hostile count allocated %d bytes", got)
	}
}

// TestReusedScratchBatchEncodesAsFresh: AppendBatch's scratch batch is
// reset and refilled for every call, so a run of batches — disjoint,
// overlapping and repeated ids, one batch with more ids than a reset keeps
// an index for, and small batches after a large one — encodes byte for byte
// as the same run does through a fresh batch each time, against
// dictionaries in the same state.
func TestReusedScratchBatchEncodesAsFresh(t *testing.T) {
	ids := func(prefix string, from, to int) []EntityID {
		var out []EntityID
		for i := from; i < to; i++ {
			out = append(out, EntityID(fmt.Sprintf("%s%d", prefix, i)))
		}
		return out
	}
	run := [][]Feedback{
		batchOf(64, ids("s", 0, 4), ids("c", 0, 40)),
		batchOf(64, ids("s", 4, 8), ids("c", 40, 80)),                      // disjoint
		batchOf(64, ids("s", 2, 6), ids("c", 20, 60)),                      // overlapping
		batchOf(64, ids("s", 2, 3), ids("c", 7, 8)),                        // one id each, repeated
		batchOf(64, ids("s", 2, 6), ids("c", 20, 60)),                      // a batch again
		batchOf(2*maxKeptDict, ids("s", 0, 9), ids("c", 0, 2*maxKeptDict)), // an index Reset drops
		batchOf(64, ids("s", 0, 4), ids("c", 30, 50)),
		batchOf(maxKeptDict, ids("s", 0, 9), ids("c", 0, maxKeptDict)), // an index Reset clears
		batchOf(4, ids("s", 1, 3), ids("c", 5, 8)),                     // one Reset deletes id by id
		batchOf(4, ids("s", 1, 3), ids("c", 6, 9)),
	}
	var reused, fresh BatchDicts
	for i, recs := range run {
		got, err := AppendBatch(nil, recs, &reused)
		if err != nil {
			t.Fatal(err)
		}
		b, errs := Pack(recs)
		if errs != nil {
			t.Fatal(errs)
		}
		if want := AppendBatches(nil, &fresh, b); !bytes.Equal(got, want) {
			t.Fatalf("batch %d: the reused scratch batch encodes %x, a fresh one %x", i, got, want)
		}
	}
}

// TestBatchDictsReset: a reset BatchDicts is an empty one — the next
// container's first batch introduces every id again — whether its storage
// was kept or, past maxKeptDict ids, dropped.
func TestBatchDictsReset(t *testing.T) {
	small := batchOf(40, []EntityID{"srv-a", "srv-b"}, []EntityID{"alice", "bob"})
	want, err := AppendBatch(nil, small, new(BatchDicts))
	if err != nil {
		t.Fatal(err)
	}
	var big []Feedback
	for i := 0; i <= maxKeptDict; i++ {
		big = append(big, Feedback{Time: time.Unix(int64(i), 0).UTC(), Server: "srv-a", Client: EntityID(fmt.Sprintf("c%d", i)), Rating: Positive})
	}
	var d BatchDicts
	for _, prior := range [][]Feedback{small, big, small} {
		if _, err := AppendBatch(nil, prior, &d); err != nil {
			t.Fatal(err)
		}
		d.Reset()
		if s, c := d.Len(); s != 0 || c != 0 || len(d.servers.slot) != 0 || len(d.clients.slot) != 0 {
			t.Fatalf("after Reset: %d servers, %d clients, %d and %d indexed", s, c, len(d.servers.slot), len(d.clients.slot))
		}
		got, err := AppendBatch(nil, small, &d)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("first batch after Reset differs from a fresh dictionary's")
		}
		if recs, err := DecodeBatch(got, new(BatchDicts), nil); err != nil || !reflect.DeepEqual(recs, small) {
			t.Fatalf("first batch after Reset does not decode on its own: %v", err)
		}
		d.Reset()
	}
	if _, err := AppendBatch(nil, big, &d); err != nil {
		t.Fatal(err)
	}
	d.Reset()
	if d.clients.slot != nil || cap(d.clients.ids) != 0 {
		t.Errorf("a dictionary of %d ids was kept for recycling", len(big))
	}
}
