package ledger

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"honestplayer/internal/feedback"
)

func BenchmarkAppend(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.jsonl")
	l, _, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := feedback.Feedback{
			Time: time.Unix(int64(i), 0).UTC(), Server: "s", Client: "c",
			Rating: feedback.Positive,
		}
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplay(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.jsonl")
	l, _, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		rec := feedback.Feedback{
			Time: time.Unix(int64(i), 0).UTC(), Server: "s", Client: "c",
			Rating: feedback.Positive,
		}
		if err := l.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l2, recs, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		if len(recs) != 10000 {
			b.Fatalf("replayed %d", len(recs))
		}
		if err := l2.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotBoot measures a full snapshot+tail open of a 200k-record
// ledger: every section is decoded into a resident history.
func BenchmarkSnapshotBoot(b *testing.B) {
	dir := filepath.Join(b.TempDir(), "led")
	opts, _ := assessorOptions(b, "multi", "average", 4, 8<<20, 0)
	ps, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	const n = 200000
	for i := 0; i < n; i++ {
		r := feedback.Positive
		if i%20 == 19 {
			r = feedback.Negative
		}
		f := feedback.Feedback{
			Time:   time.Unix(int64(i), 0).UTC(),
			Server: feedback.EntityID(fmt.Sprintf("s%03d", i%64)),
			Client: feedback.EntityID(fmt.Sprintf("c%02d", i%37)),
			Rating: r,
		}
		if _, err := ps.Add(f); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := ps.Snapshot(); err != nil {
		b.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts, _ := assessorOptions(b, "multi", "average", 4, 8<<20, 0)
		ps, err := OpenStoreOptions(context.Background(), dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		if ledgerMetric(ps, "boot_mode") != "snapshot" {
			b.Fatal("not a snapshot boot")
		}
		if err := ps.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRebuildServer measures one fault-in through the store: a
// 5000-record server from a pool of 100 clients, evicted with every record in
// the newest snapshot, is read back from its section by the read that meets
// its stub.
func BenchmarkRebuildServer(b *testing.B) {
	for _, scheme := range []string{"multi", "collusion-multi"} {
		b.Run(scheme, func(b *testing.B) {
			opts, _ := assessorOptions(b, scheme, "average", 4, 8<<20, 0)
			opts.MemBudget = 1 << 40 // lifecycle on, budget never binds
			ps, err := OpenStoreOptions(context.Background(), filepath.Join(b.TempDir(), "led"), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer ps.Close()
			recs := make([]feedback.Feedback, 5000)
			for i := range recs {
				recs[i] = feedback.Feedback{
					Time:   time.Unix(int64(i), 0).UTC(),
					Server: "s",
					Client: feedback.EntityID(fmt.Sprintf("c%02d", i%100)),
					Rating: feedback.Positive,
				}
				if i%20 == 19 {
					recs[i].Rating = feedback.Negative
				}
			}
			for i, r := range ps.AddBatch(recs, 1) {
				if !r.Stored || r.Err != nil {
					b.Fatalf("record %d: %+v", i, r)
				}
			}
			if _, err := ps.Snapshot(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if !ps.Store().EvictServer("s") {
					b.Fatal("evict failed")
				}
				b.StartTimer()
				if _, err := ps.Store().History("s"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
