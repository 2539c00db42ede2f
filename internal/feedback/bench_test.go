package feedback

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"
)

func benchRecords(n int) []Feedback {
	recs := make([]Feedback, n)
	for i := range recs {
		recs[i] = Feedback{
			Time:   time.Unix(int64(i), 0).UTC(),
			Server: "server",
			Client: EntityID(fmt.Sprintf("client-%d", i%50)),
			Rating: Positive,
		}
	}
	return recs
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// historyOf is recs, all of one server, appended one by one.
func historyOf(tb testing.TB, server EntityID, recs []Feedback) *History {
	tb.Helper()
	h := NewHistory(server)
	for _, f := range recs {
		if err := h.Append(f); err != nil {
			tb.Fatal(err)
		}
	}
	return h
}

// benchHistory holds benchRecords(n).
func benchHistory(b *testing.B, n int) *History {
	return historyOf(b, "server", benchRecords(n))
}

// BenchmarkHistoryAppend appends records of a 50-client pool and reports
// what one resident record then costs in live heap: "seconds" whole seconds
// apart, 32-bit time quotients; "ns-jitter" at nanosecond precision, a
// column that widens to raw times within its first few records.
func BenchmarkHistoryAppend(b *testing.B) {
	for _, kind := range []string{"seconds", "ns-jitter"} {
		b.Run(kind, func(b *testing.B) {
			recs := benchRecords(50)
			before := liveHeap()
			h := NewHistory("server")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := recs[i%len(recs)]
				f.Time = time.Unix(0, stamp(kind, i))
				if err := h.Append(f); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(int64(liveHeap()-before))/float64(b.N), "B/record")
			runtime.KeepAlive(h)
		})
	}
}

// BenchmarkInternFresh appends records whose every client is new, as a
// Sybil stream sends them: each append grows the dictionary, and now and
// then doubles its table.
func BenchmarkInternFresh(b *testing.B) {
	ids := make([]EntityID, b.N)
	for i := range ids {
		ids[i] = EntityID(fmt.Sprintf("sybil-%d", i))
	}
	h := NewHistory("server")
	b.ReportAllocs()
	b.ResetTimer()
	for i, c := range ids {
		if err := h.AppendOutcome(c, i%10 != 0, time.Unix(int64(i), 0)); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkFeedback Feedback

// BenchmarkHistoryAt is the price of rebuilding a Feedback from the columns.
func BenchmarkHistoryAt(b *testing.B) {
	h := benchHistory(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFeedback = h.At(i % 10000)
	}
}

func BenchmarkWindowCountsFromEnd(b *testing.B) {
	h := NewHistory("s")
	for i := 0; i < 100000; i++ {
		if err := h.AppendOutcome("c", i%10 != 0, time.Unix(int64(i), 0)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.WindowCountsFromEnd(10); err != nil {
			b.Fatal(err)
		}
	}
}

// outcomeView is the newest n records of a history one record longer, so
// that it starts mid-word as the suffix views an assessor reads do; every
// tenth record is bad.
func outcomeView(b *testing.B, n int) *History {
	h := NewHistory("s")
	for i := 0; i <= n; i++ {
		if err := h.AppendOutcome("c", i%10 != 0, time.Unix(int64(i), 0)); err != nil {
			b.Fatal(err)
		}
	}
	return h.SuffixView(n)
}

var sinkInt int

// BenchmarkGoodInRange reads 1024 fixed ranges of a 5000-record view — the
// history length of the assess_deep workload — GoodCount's read, at
// arbitrary bounds.
func BenchmarkGoodInRange(b *testing.B) {
	const n = 5000
	h := outcomeView(b, n)
	var ranges [1024][2]int
	for i := range ranges {
		lo := i * 7919 % n
		ranges[i] = [2]int{lo, lo + (n-lo)*(i%8)/8}
	}
	b.ResetTimer()
	sum := 0
	for i := 0; i < b.N; i++ {
		r := ranges[i%len(ranges)]
		sum += h.GoodInRange(r[0], r[1])
	}
	sinkInt = sum
}

// BenchmarkWindowCounts is the table a behaviour test starts from: m = 10
// windows over a 5000-record view.
func BenchmarkWindowCounts(b *testing.B) {
	h := outcomeView(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.WindowCounts(10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollusionWindows is the window table of a collusion-resilient
// single test: 10,000 records of 50 clients re-ordered by issuer, m = 10.
func BenchmarkCollusionWindows(b *testing.B) {
	h := benchHistory(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.CollusionWindows(10, h.Len(), 10, func(counts []int) bool {
			if len(counts) != 1000 {
				b.Fatalf("%d windows", len(counts))
			}
			return false
		})
	}
}

func BenchmarkJSONCodec(b *testing.B) {
	recs := benchRecords(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteJSONLines(&buf, recs); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadJSONLines(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryCodec(b *testing.B) {
	recs := benchRecords(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, err := encodeBinaryAll(recs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decodeBinaryAll(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchCodec is the record-batch codec at the ingest_durable shape:
// 64-record batches, each naming 64 of 512 servers once and clients from a
// pool of 100, a few whole seconds apart. "frame" resets the dictionaries
// before every batch, as the wire's pooled frame dictionaries are; "segment"
// keeps them, as a ledger segment does. Rows are the same records through
// AppendBinary.
func BenchmarkBatchCodec(b *testing.B) {
	const perBatch, batches = 64, 64
	recs := make([]Feedback, perBatch*batches)
	for i := range recs {
		recs[i] = Feedback{
			Time:   time.Unix(1_700_000_000+int64(i/512+i*7%10), 0),
			Server: EntityID(fmt.Sprintf("server-%04d", (i*67+i/perBatch)%512)),
			Client: EntityID(fmt.Sprintf("cli-%d", i*31%100)),
			Rating: Rating(1 + i%2),
		}
	}
	run := func(name string, encode func(buf []byte, batch []Feedback) []byte, decode func(buf []byte, dst []Feedback) []Feedback) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var size int
			var buf []byte
			for i := 0; i < b.N; i++ {
				size = 0
				for k := 0; k < batches; k++ {
					buf = encode(buf[:0], recs[k*perBatch:(k+1)*perBatch])
					size += len(buf)
					if got := decode(buf, nil); len(got) != perBatch {
						b.Fatalf("decoded %d records", len(got))
					}
				}
			}
			b.ReportMetric(float64(size)/float64(len(recs)), "B/record")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recs)), "ns/record")
		})
	}
	batchWith := func(enc, dec func() *BatchDicts) (func([]byte, []Feedback) []byte, func([]byte, []Feedback) []Feedback) {
		return func(buf []byte, batch []Feedback) []byte {
				buf, err := AppendBatch(buf, batch, enc())
				if err != nil {
					b.Fatal(err)
				}
				return buf
			}, func(buf []byte, dst []Feedback) []Feedback {
				dst, err := DecodeBatch(buf, dec(), dst)
				if err != nil {
					b.Fatal(err)
				}
				return dst
			}
	}
	var frameEnc, frameDec BatchDicts
	enc, dec := batchWith(func() *BatchDicts { frameEnc.Reset(); return &frameEnc }, func() *BatchDicts { frameDec.Reset(); return &frameDec })
	run("frame", enc, dec)
	// Never reset: the steady state of a long segment, every id a slot.
	var segEnc, segDec BatchDicts
	enc, dec = batchWith(func() *BatchDicts { return &segEnc }, func() *BatchDicts { return &segDec })
	run("segment", enc, dec)
	run("rows", func(buf []byte, batch []Feedback) []byte {
		for _, r := range batch {
			buf, _ = AppendBinary(buf, r)
		}
		return buf
	}, func(buf []byte, dst []Feedback) []Feedback {
		dst, err := decodeBinaryAll(buf)
		if err != nil {
			b.Fatal(err)
		}
		return dst
	})
}

// nsJitter is n times a second apart, each off its second by a scrambled
// part of a millisecond: a scale of 1.
func nsJitter(n int) []int64 { return stampsOf("ns-jitter", n) }

// stampsOf is n times as the benchmarks below stamp them (stamp).
func stampsOf(kind string, n int) []int64 {
	times := make([]int64, n)
	for i := range times {
		times[i] = stamp(kind, i)
	}
	return times
}

// stamp is the i-th time of a kind: "seconds" whole seconds apart, a few
// steps backwards among them, as every generator here writes; "ns-jitter"
// a second apart at nanosecond precision, a scale of 1.
func stamp(kind string, i int) int64 {
	if kind == "ns-jitter" {
		return 1_700_000_000e9 + int64(i)*1e9 + int64(uint64(i)*0x9E3779B97F4A7C15>>44)
	}
	return (1_700_000_000 + int64(i+i*7%10)) * 1e9
}

// perRecord reports the benchmark's time over the records it handled.
func perRecord(b *testing.B, records int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

// codecBatches is the records of 64 64-record batches at the given stamps:
// servers and clients from pools of 512 and 100, as ingest_durable's frames.
func codecBatches(kind string) [][]Feedback {
	const perBatch, batches = 64, 64
	times := stampsOf(kind, perBatch*batches)
	recs := make([]Feedback, len(times))
	for i := range recs {
		recs[i] = Feedback{
			Time:   time.Unix(0, times[i]).UTC(),
			Server: EntityID(fmt.Sprintf("srv-%d", (i*67+i/perBatch)%512)),
			Client: EntityID(fmt.Sprintf("cli-%d", i*31%100)),
			Rating: Rating(1 + i%2),
		}
	}
	var out [][]Feedback
	for len(recs) > 0 {
		out, recs = append(out, recs[:perBatch]), recs[perBatch:]
	}
	return out
}

// BenchmarkAppendBatch encodes 64-record batches into warm dictionaries, a
// long segment's steady state, where the time column is the largest cost
// left. Together with BenchmarkDecodeBatch and BenchmarkHistoryColumns it is
// the guard on the gcd pass: ns/record at ns-jitter stamps, whose scale is 1.
func BenchmarkAppendBatch(b *testing.B) {
	for _, kind := range []string{"seconds", "ns-jitter"} {
		b.Run(kind, func(b *testing.B) {
			batches := codecBatches(kind)
			var d BatchDicts
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, batch := range batches {
					var err error
					if buf, err = AppendBatch(buf[:0], batch, &d); err != nil {
						b.Fatal(err)
					}
				}
			}
			perRecord(b, 64*len(batches))
		})
	}
}

// BenchmarkDecodeBatch decodes the batches BenchmarkAppendBatch writes,
// against warm dictionaries, into a reused slice.
func BenchmarkDecodeBatch(b *testing.B) {
	for _, kind := range []string{"seconds", "ns-jitter"} {
		b.Run(kind, func(b *testing.B) {
			var enc, dec BatchDicts
			var encoded [][]byte
			for round := 0; round < 2; round++ { // the second round's ids are all slots
				encoded = encoded[:0]
				for _, batch := range codecBatches(kind) {
					buf, err := AppendBatch(nil, batch, &enc)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := DecodeBatch(buf, &dec, nil); err != nil {
						b.Fatal(err)
					}
					encoded = append(encoded, buf)
				}
			}
			dst := make([]Feedback, 0, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, buf := range encoded {
					var err error
					if dst, err = DecodeBatch(buf, &dec, dst[:0]); err != nil {
						b.Fatal(err)
					}
				}
			}
			perRecord(b, 64*len(encoded))
		})
	}
}

// BenchmarkHistoryColumns writes and reads back a snapshot section: one
// 1100-record history of a 100-client pool.
func BenchmarkHistoryColumns(b *testing.B) {
	for _, kind := range []string{"seconds", "ns-jitter"} {
		b.Run(kind, func(b *testing.B) {
			h := NewHistory("server")
			for i, t := range stampsOf(kind, 1100) {
				if err := h.AppendOutcome(EntityID(fmt.Sprintf("cli-%d", i*31%100)), i%10 != 0, time.Unix(0, t)); err != nil {
					b.Fatal(err)
				}
			}
			var buf []byte
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = h.AppendColumns(buf[:0])
				if _, _, err := DecodeColumns("server", buf); err != nil {
					b.Fatal(err)
				}
			}
			perRecord(b, h.Len())
			b.ReportMetric(float64(len(buf))/float64(h.Len()), "B/record")
		})
	}
}
