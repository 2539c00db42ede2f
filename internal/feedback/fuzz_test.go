package feedback

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
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
	f.Fuzz(func(t *testing.T, data []byte) {
		got, rest, err := DecodeColumns("srv", data)
		if err != nil {
			return
		}
		consumed := data[:len(data)-len(rest)]
		if re := got.AppendColumns(nil); !bytes.Equal(re, consumed) {
			t.Fatalf("round trip mismatch:\n in: %x\nout: %x", consumed, re)
		}
		if size := got.SizeBytes(); size > 256+16*len(consumed) {
			t.Fatalf("%d bytes decoded into %d", len(consumed), size)
		}
		built := NewHistory("srv")
		for i := 0; i < got.Len(); i++ {
			if err := built.Append(got.At(i)); err != nil {
				t.Fatalf("record %d of an accepted history: %v", i, err)
			}
		}
		sameAs(t, "decoded", got, built.Records())
	})
}
