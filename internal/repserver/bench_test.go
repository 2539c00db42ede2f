package repserver

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/service"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
	"honestplayer/internal/wire"
)

func benchCalibrator() *stats.Calibrator {
	return stats.NewCalibrator(stats.CalibrationConfig{Seed: 1, Replicates: 200}, 0)
}

func benchAssessorWith(b *testing.B, cal *stats.Calibrator) *core.TwoPhase {
	b.Helper()
	tester, err := behavior.NewMulti(behavior.Config{Calibrator: cal})
	if err != nil {
		b.Fatal(err)
	}
	tp, err := core.NewTwoPhase(tester, trust.Average{})
	if err != nil {
		b.Fatal(err)
	}
	return tp
}

func benchAssessor(b *testing.B) *core.TwoPhase {
	b.Helper()
	return benchAssessorWith(b, benchCalibrator())
}

// prewarmCalibration fills every threshold-grid point the benchmark workload
// can reach — all window-count buckets up to maxWindows, p̂ buckets in
// [pLo, pHi] at the calibrator's configured confidence — so the one-off
// Monte-Carlo grid calibration, which both serving modes share, stays out of
// the measured window instead of landing as multi-millisecond spikes on
// whichever iteration first crosses a bucket boundary.
func prewarmCalibration(b *testing.B, cal *stats.Calibrator, m, maxWindows int, pLo, pHi float64) {
	b.Helper()
	for k := 1; k <= maxWindows; k++ {
		for p := pLo; p <= pHi+1e-9; p += 0.01 {
			if _, err := cal.Threshold(m, k, p); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchRecs builds an honest-looking history: 19 good transactions out of
// every 20, spread over 25 clients.
func benchHistoryRecs(server feedback.EntityID, n int) []feedback.Feedback {
	recs := make([]feedback.Feedback, n)
	for i := range recs {
		r := feedback.Positive
		if i%20 == 19 {
			r = feedback.Negative
		}
		recs[i] = feedback.Feedback{
			Time:   time.Unix(int64(i), 0).UTC(),
			Server: server,
			Client: feedback.EntityID(fmt.Sprintf("c%d", i%25)),
			Rating: r,
		}
	}
	return recs
}

func benchServer(b *testing.B) *Server {
	b.Helper()
	srv, err := New("127.0.0.1:0", Config{Assessor: benchAssessor(b)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	return srv
}

// BenchmarkAssessUncached is the serving path: every request re-runs the
// full two-phase test over a 10k-record history (request decode and socket
// I/O excluded).
func BenchmarkAssessUncached(b *testing.B) {
	srv := benchServer(b)
	if _, err := srv.Seed(benchHistoryRecs("srv", 10000)); err != nil {
		b.Fatal(err)
	}
	req := wire.AssessRequest{Server: "srv", Threshold: 0.9}
	ctx := context.Background()
	// Warm up calibration outside the timer.
	if _, err := srv.Assess(ctx, req); err != nil {
		b.Fatalf("assess: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Assess(ctx, req); err != nil {
			b.Fatalf("assess: %v", err)
		}
	}
}

// BenchmarkAssessMixed interleaves writes with assessments (1 submit per 9
// assessments, round-robin over 8 servers).
func BenchmarkAssessMixed(b *testing.B) {
	ctx := context.Background()
	const servers = 8
	srv := benchServer(b)
	for s := 0; s < servers; s++ {
		name := feedback.EntityID(fmt.Sprintf("srv%d", s))
		if _, err := srv.Seed(benchHistoryRecs(name, 2000)); err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Assess(ctx, wire.AssessRequest{Server: name, Threshold: 0.9}); err != nil {
			b.Fatalf("assess: %v", err)
		}
	}
	next := int64(100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := feedback.EntityID(fmt.Sprintf("srv%d", i%servers))
		if i%10 == 0 {
			next++
			f := feedback.Feedback{
				Time:   time.Unix(next, 0).UTC(),
				Server: name,
				Client: feedback.EntityID(fmt.Sprintf("c%d", i%25)),
				Rating: feedback.Positive,
			}
			if _, err := srv.Seed([]feedback.Feedback{f}); err != nil {
				b.Fatal(err)
			}
			continue
		}
		if _, err := srv.Assess(ctx, wire.AssessRequest{Server: name, Threshold: 0.9}); err != nil {
			b.Fatalf("assess: %v", err)
		}
	}
}

// BenchmarkAssessAfterAppend measures the paper's write-then-assess
// pattern, in which every verdict sees a changed history, against a
// 10k-record history.
func BenchmarkAssessAfterAppend(b *testing.B) {
	cal := benchCalibrator()
	srv, err := New("127.0.0.1:0", Config{Assessor: benchAssessorWith(b, cal)})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = srv.Close() })
	if _, err := srv.Seed(benchHistoryRecs("srv", 10000)); err != nil {
		b.Fatal(err)
	}
	// Suffix p̂ over this workload spans ≈0.945 (whole history) to 1.0
	// (suffixes of appended-only windows); cover the surrounding p̂
	// buckets and every window bucket the history can grow into.
	prewarmCalibration(b, cal, 10, 2048, 0.93, 1.0)
	ctx := context.Background()
	req := wire.AssessRequest{Server: "srv", Threshold: 0.9}
	next := int64(1 << 30)
	// Steady-state warm-up: run the append+assess workload outside
	// the timer.
	for i := 0; i < 200; i++ {
		next++
		f := feedback.Feedback{
			Time:   time.Unix(next, 0).UTC(),
			Server: "srv",
			Client: feedback.EntityID(fmt.Sprintf("c%d", i%25)),
			Rating: feedback.Positive,
		}
		if _, err := srv.Seed([]feedback.Feedback{f}); err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Assess(ctx, req); err != nil {
			b.Fatalf("assess: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next++
		f := feedback.Feedback{
			Time:   time.Unix(next, 0).UTC(),
			Server: "srv",
			Client: feedback.EntityID(fmt.Sprintf("c%d", i%25)),
			Rating: feedback.Positive,
		}
		if _, err := srv.Seed([]feedback.Feedback{f}); err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Assess(ctx, req); err != nil {
			b.Fatalf("assess: %v", err)
		}
	}
}

// seedingFrames is the seeding shape of the ingest_durable workload: 512
// servers of 586 records — honest players over 50 clients, one record a
// second — sent as submit.batch frames of up to 256 records of one server,
// encoded and committed as a client encodes and writes them on one
// connection, its ids crossing as the connection's name refs.
func seedingFrames(b *testing.B) (frames []wire.Envelope, records int) {
	b.Helper()
	rng := stats.NewRNG(1)
	client := wire.CodecFor(wire.VersionV2)
	for i := 0; i < 512; i++ {
		h, err := attack.GenHonest(feedback.EntityID(fmt.Sprintf("srv-%d", i)), 586, 0.9+0.09*rng.Float64(), 50, rng)
		if err != nil {
			b.Fatal(err)
		}
		recs := h.Records()
		for start := 0; start < len(recs); start += wire.MaxSubmitBatch {
			chunk := recs[start:min(start+wire.MaxSubmitBatch, len(recs))]
			env, err := client.Encode(wire.TypeSubmitB, uint64(len(frames)+1), wire.BatchRequest{Records: chunk})
			if err == nil {
				err = client.Commit(&env)
			}
			if err != nil {
				b.Fatal(err)
			}
			frames = append(frames, env)
			records += len(chunk)
		}
	}
	return frames, records
}

// BenchmarkDurableIngest drives the seeding shape through a durable node in
// process, one frame after another as one connection carries them — each
// committed at the node's end before it is served: frame decode, the
// store's server runs and the ledger's group commit, with a snapshot at the
// workload's -snapshot-every. It reports ns/record.
func BenchmarkDurableIngest(b *testing.B) {
	frames, records := seedingFrames(b)
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		ps, err := ledger.OpenStoreOptions(context.Background(), b.TempDir(), ledger.Options{SnapshotEvery: 250000})
		if err != nil {
			b.Fatal(err)
		}
		srv, err := New("127.0.0.1:0", Config{Assessor: benchAssessor(b), Store: ps.Store(), Recorder: ps})
		if err != nil {
			b.Fatal(err)
		}
		conn := wire.CodecFor(wire.VersionV2)
		ctx := service.WithCodec(context.Background(), conn)
		b.StartTimer()
		for _, env := range frames {
			err := conn.Commit(&env)
			var resp wire.Envelope
			if err == nil {
				resp, err = srv.pipeline(ctx, env)
			}
			if err != nil || resp.Type != wire.TypeSubmitBR {
				b.Fatalf("frame %d: %s, %v", env.ID, resp.Type, err)
			}
		}
		b.StopTimer()
		if err := errors.Join(srv.Close(), ps.Close()); err != nil {
			b.Fatal(err)
		}
		if got := ps.Store().Len(); got != records {
			b.Fatalf("stored %d records of %d", got, records)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
