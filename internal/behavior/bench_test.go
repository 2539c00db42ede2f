package behavior

import (
	"fmt"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

var benchCal = stats.NewCalibrator(stats.CalibrationConfig{Seed: 1, Replicates: 300}, 0)

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

func warm(b *testing.B, t Tester, h *feedback.History) {
	b.Helper()
	if _, err := t.Test(h); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSingleTest is the Fig. 9 "single testing" micro-benchmark: O(n).
func BenchmarkSingleTest(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tester, err := NewSingle(Config{Calibrator: benchCal})
			if err != nil {
				b.Fatal(err)
			}
			h := benchHistory(b, n)
			warm(b, tester, h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tester.Test(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiTest is the Fig. 9 "multi testing (optimised)"
// micro-benchmark: O(n) thanks to incremental statistics.
func BenchmarkMultiTest(b *testing.B) {
	for _, n := range []int{1000, 10000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tester, err := NewMulti(Config{Calibrator: benchCal})
			if err != nil {
				b.Fatal(err)
			}
			h := benchHistory(b, n)
			warm(b, tester, h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tester.Test(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMultiNaiveTest is the O(n²) ablation; compare its growth with
// BenchmarkMultiTest to see the optimisation of §5.5.
func BenchmarkMultiNaiveTest(b *testing.B) {
	for _, n := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tester, err := NewMultiNaive(Config{Calibrator: benchCal})
			if err != nil {
				b.Fatal(err)
			}
			h := benchHistory(b, n)
			warm(b, tester, h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tester.Test(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWindowSizeAblation explores the window-size design choice the
// paper fixes at m=10: larger windows reduce the suffix count but coarsen
// the distribution.
func BenchmarkWindowSizeAblation(b *testing.B) {
	for _, m := range []int{5, 10, 20, 50} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			tester, err := NewMulti(Config{WindowSize: m, Calibrator: benchCal})
			if err != nil {
				b.Fatal(err)
			}
			h := benchHistory(b, 20000)
			warm(b, tester, h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tester.Test(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStrideAblation explores the multi-testing stride k: larger
// strides test fewer suffixes.
func BenchmarkStrideAblation(b *testing.B) {
	for _, stride := range []int{10, 50, 100} {
		b.Run(fmt.Sprintf("k=%d", stride), func(b *testing.B) {
			tester, err := NewMulti(Config{WindowSize: 10, Stride: stride, Calibrator: benchCal})
			if err != nil {
				b.Fatal(err)
			}
			h := benchHistory(b, 20000)
			warm(b, tester, h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tester.Test(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// uniformHistory is n records of p = 0.9, each from one of clients drawn
// uniformly.
func uniformHistory(b *testing.B, n, clients int) *feedback.History {
	b.Helper()
	rng := stats.NewRNG(2)
	h := feedback.NewHistory("s")
	for i := 0; i < n; i++ {
		c := feedback.EntityID(fmt.Sprintf("c%d", rng.Intn(clients)))
		if err := h.AppendOutcome(c, rng.Bernoulli(0.9), time.Unix(int64(i), 0)); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

// BenchmarkCollusionTest measures the issuer-reordering overhead of the
// collusion-resilient single test.
func BenchmarkCollusionTest(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			tester, err := NewCollusion(Config{Calibrator: benchCal})
			if err != nil {
				b.Fatal(err)
			}
			h := uniformHistory(b, n, 100)
			warm(b, tester, h)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tester.Test(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCollusionMultiTest is BenchmarkMultiTest for the
// collusion-resilient multi-test, at the 5,000 records of the assess_deep
// workload from a few clients and from many.
func BenchmarkCollusionMultiTest(b *testing.B) {
	for _, clients := range []int{20, 500} {
		tester, err := NewCollusionMulti(Config{Calibrator: benchCal})
		if err != nil {
			b.Fatal(err)
		}
		h := uniformHistory(b, 5000, clients)
		warm(b, tester, h)
		b.Run(fmt.Sprintf("tester/n=5000/clients=%d", clients), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tester.Test(h); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
