package feedback

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"
	"unsafe"
)

// FuzzDecodeBinary ensures the binary decoder never panics and that
// anything it accepts round-trips back to identical bytes.
func FuzzDecodeBinary(f *testing.F) {
	seed, _ := AppendBinary(nil, Feedback{
		Time: time.Unix(1, 0).UTC(), Server: "srv", Client: "cli", Rating: Positive,
	})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, rest, err := DecodeBinary(data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		re, err := AppendBinary(nil, rec)
		if err != nil {
			t.Fatalf("accepted record failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, consumed) {
			t.Fatalf("round trip mismatch:\n in: %x\nout: %x", consumed, re)
		}
	})
}

// FuzzReadJSONLines ensures the JSON-lines reader never panics on arbitrary
// input.
func FuzzReadJSONLines(f *testing.F) {
	f.Add(`{"time":"2020-01-01T00:00:00Z","server":"s","client":"c","rating":2}` + "\n")
	f.Add("")
	f.Add("{}\n{}")
	f.Fuzz(func(t *testing.T, data string) {
		recs, err := ReadJSONLines(bytes.NewReader([]byte(data)))
		if err != nil {
			return
		}
		for _, r := range recs {
			if err := r.Validate(); err != nil {
				t.Fatalf("reader returned invalid record: %v", err)
			}
		}
	})
}

// FuzzHistoryColumns feeds arbitrary bytes through the column decoder. It
// must never panic, and must refuse counts its input cannot hold before
// allocating for them; whatever it accepts re-encodes to exactly the bytes it
// consumed, costs memory in proportion to them, and equals — through every
// read accessor — the history Append builds from the same records.
func FuzzHistoryColumns(f *testing.F) {
	// The layout histStruct's comment describes, at either word size: a
	// field added or dropped shows here.
	if want := map[uintptr]int{8: 280, 4: 160}[unsafe.Sizeof(uintptr(0))]; histStruct != want {
		f.Fatalf("a History is %d B, want %d at this word size: update histStruct's comment", histStruct, want)
	}
	h := NewHistory("srv")
	for i, c := range []EntityID{"a", "b", "a", "c", "b", "a", "a", "b", "c"} {
		// Equal times, a step backwards and a pre-1970 start are all legal
		// in a History; only the store asks for an order.
		at := time.Unix(int64(i/2-2), int64(i%3)).UTC()
		if err := h.Append(Feedback{Time: at, Server: "srv", Client: c, Rating: Rating(1 + i%2)}); err != nil {
			f.Fatal(err)
		}
	}
	valid := h.AppendColumns(nil)
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(h.SuffixView(3).AppendColumns(nil)) // a dictionary entry no record uses
	f.Add(NewHistory("srv").AppendColumns(nil))
	f.Add(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<40), 1<<40)) // hostile counts
	f.Add([]byte{1, 2, 1, 'a', 1, 'a', 0, 0, 0})                         // a client twice
	f.Add([]byte{1, 1, 1, 'a', 0x80, 0, 0, 0})                           // a padded varint
	// Lengths on either side of the 64-record good-bit words, written from a
	// history of that length and from a suffix view of a longer one (its
	// first record mid-word).
	long := NewHistory("srv")
	for i := 0; i < 200; i++ {
		if err := long.AppendOutcome(EntityID([]string{"x", "y", "z"}[i%3]), i%3 != 0 && i%5 != 0, time.Unix(int64(i), 0)); err != nil {
			f.Fatal(err)
		}
	}
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		f.Add(historyOf(f, "srv", long.Records()[:n]).AppendColumns(nil))
		f.Add(long.SuffixView(n).AppendColumns(nil))
	}
	// The dictionary's edges: a record but no client, a single client, an
	// id long enough that its length takes two bytes and its bytes several
	// cache lines — longer than a record may now carry, as a snapshot
	// written before that bound may hold it — and a duplicate in the last
	// slot.
	f.Add([]byte{1, 0, 0, 0, 0})
	one, huge := NewHistory("srv"), NewHistory("srv")
	for i, c := range []EntityID{"x", EntityID(bytes.Repeat([]byte{'h'}, 2061)), "x"} {
		at := time.Unix(int64(i), 0)
		if err := one.AppendOutcome("only", i != 1, at); err != nil {
			f.Fatal(err)
		}
		slot, err := huge.Intern(c)
		if err != nil {
			f.Fatal(err)
		}
		huge.AppendSlot(at.UnixNano(), slot, i != 1)
	}
	f.Add(one.AppendColumns(nil))
	f.Add(huge.AppendColumns(nil))
	f.Add([]byte{1, 4, 1, 'a', 1, 'b', 1, 'c', 1, 'a', 0, 0, 0})
	// Scaled time columns: whole seconds, milliseconds and a day apart; the
	// oldest and newest nanosecond a record may carry in one history (a
	// difference that wraps to math.MinInt64); and columns one step from
	// canonical — scale 0, a scale below the gcd, a scale over equal times.
	for _, step := range []time.Duration{time.Second, time.Millisecond, 24 * time.Hour, math.MaxInt64} {
		h := NewHistory("srv")
		for i := 0; i < 70; i++ {
			at := time.Unix(0, math.MinInt64+int64(step)*int64(i%3+i/7)) // wraps
			if err := h.AppendOutcome(EntityID([]string{"x", "y"}[i%2]), i%4 != 0, at); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(h.AppendColumns(nil))
	}
	f.Add([]byte{2, 1, 1, 'a', 2, 0, 4, 0, 0, 0})
	f.Add([]byte{2, 1, 1, 'a', 2, 2, 8, 0, 0, 0})
	f.Add([]byte{3, 1, 1, 'a', 2, 7, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, rest, err := DecodeColumns("srv", data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if re := got.AppendColumns(nil); !bytes.Equal(re, consumed) {
			t.Fatalf("round trip mismatch:\n in: %x\nout: %x", consumed, re)
		}
		if size := got.SizeBytes(); size > histStruct+32+16*len(consumed) { // 32: the builder
			t.Fatalf("%d bytes decoded into %d", len(consumed), size)
		}
		built := NewHistory("srv")
		for i := 0; i < got.Len(); i++ {
			r := got.At(i)
			err := built.Append(r)
			if len(r.Client) > maxEntityLen && errors.Is(err, ErrRecordTooLarge) {
				// An id a snapshot written before the bound may hold: it
				// is kept, as replay keeps it, though no new record may
				// carry it.
				slot, ierr := built.Intern(r.Client)
				if ierr != nil {
					t.Fatal(ierr)
				}
				built.AppendSlot(r.Time.UnixNano(), slot, r.Good())
				err = nil
			}
			if err != nil {
				t.Fatalf("record %d of an accepted history: %v", i, err)
			}
		}
		sameAs(t, "decoded", got, built.Records())
	})
}

// FuzzRecordBatch feeds arbitrary bytes to the record-batch decoder,
// Batch.Decode. It must never panic and must refuse a count its input
// cannot hold before allocating for it; a refused input leaves the batch
// and the dictionaries as they were. Whatever it accepts holds valid
// records only, re-encodes to exactly the input from the same (empty)
// dictionaries, and encodes again — every id now a slot — to a batch the
// decoder's own dictionaries read back, appended to the first.
func FuzzRecordBatch(f *testing.F) {
	recs := batchOf(9, []EntityID{"srv-a", "srv-b"}, []EntityID{"a", "b", "c"})
	valid, err := AppendBatch(nil, recs, new(BatchDicts))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte(nil), valid...), 0))
	f.Add([]byte{0})
	f.Add(binary.AppendUvarint(nil, 1<<40))                       // a hostile count
	f.Add([]byte{2, 2, 0, 0, 1, 's', 1, 0, 1, 'c', 0, 0})         // the second record's server is a slot past the end
	f.Add([]byte{2, 2, 0, 0, 1, 's', 1, 1, 's', 0, 1, 'c', 0, 0}) // an id introduced twice
	// Scaled columns: stamps whole seconds and milliseconds apart, the
	// extremes of the nanosecond range side by side, and the batch that
	// names the same time twice.
	for _, step := range []time.Duration{time.Second, time.Millisecond, math.MaxInt64, 0} {
		spaced := append([]Feedback(nil), recs...)
		for i := range spaced {
			spaced[i].Time = time.Unix(0, math.MinInt64+int64(step)*int64(i%4)).UTC() // wraps
		}
		buf, err := AppendBatch(nil, spaced, new(BatchDicts))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Add([]byte{2, 2, 0, 2, 0, 1, 's', 0, 0, 1, 'c', 0, 0})          // scale 0
	f.Add([]byte{2, 2, 2, 4, 0, 1, 's', 0, 0, 1, 'c', 0, 0})          // scale 2 for a delta of 8: not the gcd
	f.Add([]byte{3, 2, 5, 0, 0, 0, 1, 's', 0, 0, 0, 1, 'c', 0, 0, 0}) // scale 5 over equal times
	f.Fuzz(func(t *testing.T, data []byte) {
		var dec BatchDicts
		var got Batch
		if err := got.Decode(data, &dec); err != nil {
			if s, c := dec.Len(); s != 0 || c != 0 || got.Len() != 0 || len(got.Servers()) != 0 || len(got.Clients()) != 0 {
				t.Fatalf("a refused batch left %d servers, %d clients in the dictionaries, %d records in the batch", s, c, got.Len())
			}
			return
		}
		n := got.Len()
		if n > len(data)/3 || cap(got.nanos) > len(data) {
			t.Fatalf("%d bytes decoded into %d records (cap %d)", len(data), n, cap(got.nanos))
		}
		recs := got.Records()
		for i, r := range recs {
			if err := r.Validate(); err != nil {
				t.Fatalf("record %d of an accepted batch: %v", i, err)
			}
		}
		var enc BatchDicts
		if re := AppendBatches(nil, &enc, &got); !bytes.Equal(re, data) {
			t.Fatalf("round trip mismatch:\n in: %x\nout: %x", data, re)
		}
		warm := AppendBatches(nil, &enc, &got)
		if err := got.Decode(warm, &dec); err != nil {
			t.Fatalf("second batch against the same dictionaries: %v", err)
		}
		if got.Len() != 2*n {
			t.Fatalf("two batches hold %d records, want %d", got.Len(), 2*n)
		}
		for i := range n {
			if again := got.At(n + i); again != recs[i] {
				t.Fatalf("second batch, record %d: %v, want %v", i, again, recs[i])
			}
		}
		for _, ids := range [][]EntityID{got.Servers(), got.Clients()} {
			seen := map[EntityID]bool{}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("the batch holds %q twice", id)
				}
				seen[id] = true
			}
		}
	})
}
