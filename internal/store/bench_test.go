package store

import (
	"fmt"
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
