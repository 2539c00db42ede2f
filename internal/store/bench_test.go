package store

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"honestplayer/internal/feedback"
)

func benchRecs(n int) []feedback.Feedback {
	recs := make([]feedback.Feedback, n)
	for i := range recs {
		recs[i] = feedback.Feedback{
			Time:   time.Unix(int64(i), 0).UTC(),
			Server: "server",
			Client: feedback.EntityID(fmt.Sprintf("c%d", i%100)),
			Rating: feedback.Positive,
		}
	}
	return recs
}

// benchRecsMulti spreads n records over k servers, time-ordered per server.
func benchRecsMulti(n, k int) []feedback.Feedback {
	recs := make([]feedback.Feedback, n)
	for i := range recs {
		recs[i] = feedback.Feedback{
			Time:   time.Unix(int64(i), 0).UTC(),
			Server: feedback.EntityID(fmt.Sprintf("srv%d", i%k)),
			Client: feedback.EntityID(fmt.Sprintf("c%d", i%100)),
			Rating: feedback.Positive,
		}
	}
	return recs
}

func BenchmarkStoreAddAppendOrder(b *testing.B) {
	recs := benchRecs(b.N)
	s := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Add(recs[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddBatchInOrder is the ingest path: 64-record batches, one record
// per server, each newer than what its server holds, so every insert is the
// append that needs no lookup. B/record is the live heap one resident record
// then costs — the accounted figure is ResidentBytes()/Len().
func BenchmarkAddBatchInOrder(b *testing.B) {
	const servers = 64
	proto := benchRecsMulti(servers, servers)
	before := heapAlloc()
	s := New()
	batch := make([]feedback.Feedback, servers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = proto[j]
			batch[j].Time = time.Unix(int64(i), 0)
			batch[j].Client = proto[(i+j)%servers].Client
		}
		for _, r := range s.AddBatch(batch, 1) {
			if r.Err != nil || !r.Stored {
				b.Fatalf("AddBatch: %+v", r)
			}
		}
	}
	b.StopTimer()
	reportBytesPerRecord(b, s, before)
}

// reportBytesPerRecord reports what a resident record of s costs: in live
// heap beyond base, and as the budget governor accounts it.
func reportBytesPerRecord(b *testing.B, s *Store, base uint64) {
	b.ReportMetric(float64(int64(heapAlloc()-base))/float64(s.Len()), "B/record")
	b.ReportMetric(float64(s.ResidentBytes())/float64(s.Len()), "accountedB/record")
	runtime.KeepAlive(s)
}

// BenchmarkAddOutOfOrder is the other path: every record shares its time
// with records already stored mid-history, so the insert searches the time
// column, compares hashes over the equal-time run, and rebuilds the history.
func BenchmarkAddOutOfOrder(b *testing.B) {
	const resident = 1000
	before := heapAlloc()
	s := New()
	if _, err := s.AddAll(benchRecs(resident)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := feedback.Feedback{
			Time:   time.Unix(int64(i%resident), 0),
			Server: "server",
			Client: feedback.EntityID(fmt.Sprintf("late%d", i%100)),
			Rating: feedback.Rating(1 + i/100%2),
		}
		f.Time = f.Time.Add(time.Duration(i / 200 % 1000)) // a fresh hash each lap
		if ok, err := s.Add(f); err != nil || !ok {
			b.Fatalf("Add: %v %v", ok, err)
		}
	}
	b.StopTimer()
	reportBytesPerRecord(b, s, before)
}

// BenchmarkStoreAddParallel measures concurrent writes to distinct servers
// under different shard counts: with one shard every goroutine contends on
// the same lock, with many shards writes proceed independently.
func BenchmarkStoreAddParallel(b *testing.B) {
	for _, shards := range []int{1, DefaultShards} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := NewSharded(shards)
			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := worker.Add(1)
				srv := feedback.EntityID(fmt.Sprintf("srv%d", w))
				i := int64(0)
				for pb.Next() {
					i++
					f := feedback.Feedback{
						Time:   time.Unix(i, 0).UTC(),
						Server: srv,
						Client: feedback.EntityID(fmt.Sprintf("c%d", i%100)),
						Rating: feedback.Positive,
					}
					if _, err := s.Add(f); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkStoreHistory exercises the read hot path: since histories are
// maintained incrementally and returned as shared snapshots, this is O(1)
// regardless of history length.
func BenchmarkStoreHistory(b *testing.B) {
	s := New()
	if _, err := s.AddAll(benchRecs(5000)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.History("server"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreChecksums measures the gossip summary path; checksums are
// maintained incrementally, so this scales with servers, not records.
func BenchmarkStoreChecksums(b *testing.B) {
	s := New()
	if _, err := s.AddAll(benchRecsMulti(10000, 50)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Checksums()
	}
}
