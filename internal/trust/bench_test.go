package trust

import (
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

func benchHistory(b *testing.B, n int) *feedback.History {
	b.Helper()
	rng := stats.NewRNG(1)
	h := feedback.NewHistory("s")
	for i := 0; i < n; i++ {
		if err := h.AppendOutcome("c", rng.Bernoulli(0.9), time.Unix(int64(i), 0)); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

func benchFuncs(b *testing.B) []TrackerFunc {
	b.Helper()
	w, err := NewWeighted(0.5)
	if err != nil {
		b.Fatal(err)
	}
	return []TrackerFunc{Average{}, w, Beta{}}
}

func BenchmarkEvaluate(b *testing.B) {
	h := benchHistory(b, 10000)
	for _, fn := range benchFuncs(b) {
		b.Run(fn.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := fn.Evaluate(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTrackerUpdate(b *testing.B) {
	for _, fn := range benchFuncs(b) {
		b.Run(fn.Name(), func(b *testing.B) {
			tr := fn.NewTracker()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.Update(i%10 != 0)
			}
		})
	}
}
