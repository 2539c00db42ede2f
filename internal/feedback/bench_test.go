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

// benchHistory holds benchRecords(n).
func benchHistory(b *testing.B, n int) *History {
	h, err := NewHistoryFromRecords("server", benchRecords(n))
	if err != nil {
		b.Fatal(err)
	}
	return h
}

// BenchmarkHistoryAppend appends records of a 50-client pool and reports
// what one resident record then costs in live heap.
func BenchmarkHistoryAppend(b *testing.B) {
	recs := benchRecords(50)
	before := liveHeap()
	h := NewHistory("server")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := recs[i%len(recs)]
		f.Time = time.Unix(int64(i), 0)
		if err := h.Append(f); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(liveHeap()-before)/float64(b.N), "B/record")
	runtime.KeepAlive(h)
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

func BenchmarkGroupByIssuer(b *testing.B) {
	h := benchHistory(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(h.GroupByIssuer()) != 50 {
			b.Fatal("lost a group")
		}
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

func BenchmarkCollusionReorder(b *testing.B) {
	h := benchHistory(b, 10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.CollusionOrder()
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
		buf, err := EncodeBinaryAll(recs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeBinaryAll(buf); err != nil {
			b.Fatal(err)
		}
	}
}
