package feedback

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func sampleRecords() []Feedback {
	return []Feedback{
		fb("server-1", "alice", Positive, 100),
		fb("server-1", "bob", Negative, 200),
		fb("server-1", "carol", Positive, 300),
	}
}

func TestJSONLinesRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := WriteJSONLines(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !got[i].Time.Equal(recs[i].Time) || got[i].Server != recs[i].Server ||
			got[i].Client != recs[i].Client || got[i].Rating != recs[i].Rating {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestReadJSONLinesEmpty(t *testing.T) {
	got, err := ReadJSONLines(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty input: %v, %v", got, err)
	}
}

func TestReadJSONLinesMalformed(t *testing.T) {
	if _, err := ReadJSONLines(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed JSON must fail")
	}
}

func TestReadJSONLinesInvalidRecord(t *testing.T) {
	// Valid JSON but invalid feedback (rating 0).
	in := `{"time":"2020-01-01T00:00:00Z","server":"s","client":"c","rating":0}`
	if _, err := ReadJSONLines(strings.NewReader(in)); err == nil {
		t.Fatal("invalid record must fail validation")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := sampleRecords()
	buf, err := encodeBinaryAll(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeBinaryAll(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !got[i].Time.Equal(recs[i].Time) || got[i] != (Feedback{
			Time: got[i].Time, Server: recs[i].Server, Client: recs[i].Client, Rating: recs[i].Rating,
		}) {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], recs[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(sRaw, cRaw string, good bool, at int64) bool {
		s := EntityID("s" + sanitize(sRaw))
		c := EntityID("c" + sanitize(cRaw))
		r := Negative
		if good {
			r = Positive
		}
		in := Feedback{Time: time.Unix(0, at%1e15).UTC(), Server: s, Client: c, Rating: r}
		buf, err := AppendBinary(nil, in)
		if err != nil {
			return false
		}
		out, rest, err := DecodeBinary(buf)
		if err != nil || len(rest) != 0 {
			return false
		}
		return out.Time.Equal(in.Time) && out.Server == in.Server &&
			out.Client == in.Client && out.Rating == in.Rating
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// sanitize truncates arbitrary strings to the entity-length limit.
func sanitize(s string) string {
	if len(s) > 500 {
		s = s[:500]
	}
	return s
}

func TestAppendBinaryRejectsInvalid(t *testing.T) {
	if _, err := AppendBinary(nil, fb("", "c", Positive, 1)); err == nil {
		t.Fatal("invalid record must fail")
	}
	long := EntityID(strings.Repeat("x", maxEntityLen+1))
	if _, err := AppendBinary(nil, fb(long, "c", Positive, 1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized entity = %v", err)
	}
}

func TestDecodeBinaryCorrupt(t *testing.T) {
	tests := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"short header", []byte{1, 2, 3}},
		{"truncated entity", func() []byte {
			buf, _ := AppendBinary(nil, fb("server", "client", Positive, 1))
			return buf[:len(buf)-3]
		}()},
		{"bad rating", func() []byte {
			buf, _ := AppendBinary(nil, fb("server", "client", Positive, 1))
			buf[8] = 99
			return buf
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := DecodeBinary(tt.buf); err == nil {
				t.Fatal("corrupt input must fail")
			}
		})
	}
}

func TestDecodeBinaryAllPartial(t *testing.T) {
	buf, err := encodeBinaryAll(sampleRecords())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBinaryAll(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated stream must fail")
	}
}

func TestDecodeBinaryOversizedLength(t *testing.T) {
	// Header claims a giant entity length: must fail with ErrRecordTooLarge,
	// not attempt a huge allocation.
	buf, _ := AppendBinary(nil, fb("s", "c", Positive, 1))
	buf[9] = 0xFF
	buf[10] = 0xFF
	if _, _, err := DecodeBinary(buf); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("oversized length = %v", err)
	}
}

// encodeBinaryAll encodes all records back to back with AppendBinary.
func encodeBinaryAll(recs []Feedback) ([]byte, error) {
	var buf []byte
	for i, r := range recs {
		var err error
		buf, err = AppendBinary(buf, r)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return buf, nil
}

// decodeBinaryAll decodes DecodeBinary records until the buffer is
// exhausted.
func decodeBinaryAll(buf []byte) ([]Feedback, error) {
	var out []Feedback
	for len(buf) > 0 {
		var (
			f   Feedback
			err error
		)
		f, buf, err = DecodeBinary(buf)
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", len(out), err)
		}
		out = append(out, f)
	}
	return out, nil
}
