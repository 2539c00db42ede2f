package feedback

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/stats"
)

// batchAround wraps a time column of n times into a whole batch: one server
// and one client, introduced by the first record, every rating negative.
func batchAround(n int, times []byte) []byte {
	buf := append(binary.AppendUvarint(nil, uint64(n)), times...)
	for range 2 {
		buf = append(buf, 0, 1, 'x')
		buf = append(buf, make([]byte, n-1)...)
	}
	return append(buf, make([]byte, (n+7)/8)...)
}

// sectionAround wraps a time column of n times into a history's column
// encoding: one client, every rating negative.
func sectionAround(n int, times []byte) []byte {
	buf := binary.AppendUvarint(nil, uint64(n))
	buf = append(buf, 1, 1, 'x')
	buf = append(buf, times...)
	buf = append(buf, make([]byte, n)...)
	return append(buf, make([]byte, (n+7)/8)...)
}

// column is a time column spelled out: the first time, then uvarints.
func column(first int64, rest ...uint64) []byte {
	buf := binary.AppendVarint(nil, first)
	for _, v := range rest {
		buf = binary.AppendUvarint(buf, v)
	}
	return buf
}

// TestTimeColumnCanonical: both codecs refuse every column the encoder
// would have written otherwise, and read its canonical neighbour.
func TestTimeColumnCanonical(t *testing.T) {
	zz := func(q int64) uint64 { return uint64(q<<1) ^ uint64(q>>63) }
	for _, c := range []struct {
		name    string
		n       int
		bad, ok []byte
		okTimes []int64
	}{
		{"scale 0", 2, column(100, 0, zz(4)), column(100, 4, zz(1)), []int64{100, 104}},
		{"scale not the gcd", 3, column(100, 2, zz(2), zz(-4)), column(100, 4, zz(1), zz(-2)), []int64{100, 104, 96}},
		{"scale 1 under a common factor", 2, column(0, 1, zz(6)), column(0, 6, zz(1)), []int64{0, 6}},
		{"scale at count 1", 1, column(7, 1), column(7), []int64{7}},
		{"scale 5 over equal times", 3, column(9, 5, 0, 0), column(9, 1, 0, 0), []int64{9, 9, 9}},
		{"quotient leaves int64", 3, column(0, 1<<61, zz(4), zz(-1)), column(0, 1<<61, zz(3), zz(-1)), []int64{0, 3 << 61, 1 << 62}},
		{"negative quotient past MinInt64", 2, column(0, 1<<62, zz(-3)), column(0, 1<<62, zz(-1)), []int64{0, -1 << 62}},
	} {
		for codec, wrap := range map[string]func(int, []byte) []byte{"batch": batchAround, "section": sectionAround} {
			decode := func(in []byte) ([]int64, error) {
				var got []int64
				if codec == "batch" {
					recs, err := DecodeBatch(in, new(BatchDicts), nil)
					for _, r := range recs {
						got = append(got, r.Time.UnixNano())
					}
					return got, err
				}
				h, rest, err := DecodeColumns("srv", in)
				if err == nil && len(rest) != 0 {
					err = fmt.Errorf("%d bytes left", len(rest))
				}
				for i := 0; err == nil && i < h.Len(); i++ {
					got = append(got, h.NanosAt(i))
				}
				return got, err
			}
			if _, err := decode(wrap(c.n, c.bad)); !errors.Is(err, ErrCorruptRecord) {
				t.Errorf("%s, %s: err = %v, want ErrCorruptRecord", c.name, codec, err)
			}
			if got, err := decode(wrap(c.n, c.ok)); err != nil || !reflect.DeepEqual(got, c.okTimes) {
				t.Errorf("%s, %s: the canonical column decoded to %v, %v; want %v", c.name, codec, got, err, c.okTimes)
			}
		}
		if got := appendTimes(nil, 0, 1, c.okTimes); !bytes.Equal(got, c.ok) {
			t.Errorf("%s: encoder wrote %x, want %x", c.name, got, c.ok)
		}
	}
}

// TestTimeColumnExtremes: the oldest and newest times a record may carry,
// 1677-09-21 and 2262-04-11, side by side in one batch and in one history.
// Their differences wrap, one of them to math.MinInt64, whose magnitude 2^63
// only a uint64 holds; each run round-trips through both codecs.
func TestTimeColumnExtremes(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	if y := time.Unix(0, lo).UTC(); y.Year() != 1677 || y.Month() != time.September || y.Day() != 21 {
		t.Fatalf("math.MinInt64 ns is %v", y)
	}
	for _, times := range [][]int64{
		{lo, hi},                 // +2^64-1 wraps to -1
		{lo, 0},                  // +2^63 wraps to MinInt64: scale 2^63, quotient -1
		{0, lo, 0, lo},           // MinInt64 three times over
		{lo, 0, hi, lo, 1 << 62}, // magnitudes 2^63, 2^63-1, 1, 2^62
		{hi, hi, lo, lo},
		{lo, lo + 1e9, lo + 2e9, hi},
	} {
		recs := make([]Feedback, len(times))
		h := NewHistory("srv")
		for i, ns := range times {
			recs[i] = Feedback{Time: time.Unix(0, ns).UTC(), Server: "srv", Client: EntityID(fmt.Sprintf("c%d", i%2)), Rating: Rating(1 + i%2)}
			if err := h.Append(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		buf, err := AppendBatch(nil, recs, new(BatchDicts))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := DecodeBatch(buf, new(BatchDicts), nil); err != nil || !reflect.DeepEqual(got, recs) {
			t.Errorf("%v: batch decoded to %v, %v", times, got, err)
		}
		cols := h.AppendColumns(nil)
		got, rest, err := DecodeColumns("srv", cols)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%v: history: %v, %d bytes left", times, err, len(rest))
		}
		if !reflect.DeepEqual(got.Records(), h.Records()) || !bytes.Equal(got.AppendColumns(nil), cols) {
			t.Errorf("%v: history did not round-trip", times)
		}
	}
}

// TestTimeColumnSizes pins what the column costs: a 64-record batch shaped
// like an ingest_durable frame — 64 servers of 512, clients drawn from a pool
// of 100, whole seconds apart — takes at most 17 B per record, and stamps of
// nanosecond precision cost one byte per column over their differences
// spelled out, nothing more.
func TestTimeColumnSizes(t *testing.T) {
	rng := stats.NewRNG(1)
	recs := make([]Feedback, 64)
	for i := range recs {
		recs[i] = Feedback{
			Time:   time.Unix(1_700_000_000+int64(i/512+i*7%10), 0),
			Server: EntityID(fmt.Sprintf("srv-%d", i*67%512)),
			Client: EntityID(fmt.Sprintf("cli-%d", rng.Intn(100))),
			Rating: Rating(1 + i%2),
		}
	}
	frame, err := AppendBatch(nil, recs, new(BatchDicts))
	if err != nil {
		t.Fatal(err)
	}
	if per := float64(len(frame)) / float64(len(recs)); per > 17 {
		t.Errorf("a 64-record frame takes %.2f B per record, want at most 17", per)
	}
	t.Logf("64-record frame: %.2f B/record", float64(len(frame))/64)

	jitter := nsJitter(1100)
	diffs := binary.AppendVarint(nil, jitter[0])
	for i := 1; i < len(jitter); i++ {
		diffs = binary.AppendVarint(diffs, jitter[i]-jitter[i-1])
	}
	if s := len(appendTimes(nil, 0, 1, jitter)); s != len(diffs)+1 {
		t.Errorf("a column of %d nanosecond stamps takes %d B, their differences %d", len(jitter), s, len(diffs))
	}
}
