package stats

import (
	"fmt"
	"testing"
)

func BenchmarkRNGUint64(b *testing.B) {
	r := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkRNGBernoulli(b *testing.B) {
	r := NewRNG(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Bernoulli(0.9)
	}
}

func BenchmarkBinomialSample(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r := NewRNG(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = r.Binomial(n, 0.9)
			}
		})
	}
}

// BenchmarkL1CountsDistance is one suffix's distance at the default window
// size, over a 100-window histogram.
func BenchmarkL1CountsDistance(b *testing.B) {
	pmf := make([]float64, 11)
	if err := BinomialPMFInto(pmf, 10, 0.9); err != nil {
		b.Fatal(err)
	}
	hist := make([]uint32, 11)
	r := NewRNG(1)
	for i := 0; i < 100; i++ {
		hist[r.Binomial(10, 0.9)]++
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := L1CountsDistance(hist, 100, pmf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalibrateL1 is the ablation for the calibration-replicates
// design choice: threshold estimation cost scales linearly in replicates.
// The windows= cases (default 1000 replicates, m = 10) report ns/window, the
// unit of the cost model in CalibrateL1's comment: 10 generator steps, a
// tally increment and 1/windows of a distance. On a 2-vCPU AVX-512 Xeon that
// is ~25–40 ns on the scalar loop (-tags purego) and ~4–6 ns on the
// eight-lane kernel from 542 windows up (ADR 0007). replicates=33 and
// windows=4 are the smallest points the lanes take (minLaneUniforms,
// minLaneReplicate): compare them across the two builds.
func BenchmarkCalibrateL1(b *testing.B) {
	for _, replicates := range []int{33, 100, 500, 1000} {
		b.Run(fmt.Sprintf("replicates=%d", replicates), func(b *testing.B) {
			cfg := CalibrationConfig{Seed: 1, Replicates: replicates}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := CalibrateL1(10, 50, 0.9, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, windows := range []int{4, 50, 542, 4096} {
		b.Run(fmt.Sprintf("windows=%d", windows), func(b *testing.B) {
			cfg := CalibrationConfig{Seed: 1}
			for i := 0; i < b.N; i++ {
				if _, err := CalibrateL1(10, windows, 0.9, cfg); err != nil {
					b.Fatal(err)
				}
			}
			perWindow := float64(b.N) * DefaultReplicates * float64(windows)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perWindow, "ns/window")
		})
	}
}

// BenchmarkBinomialPMFInto is one PMF fill at the default window size: what
// every suffix of a behaviour test pays, accumulator or reference tester.
func BenchmarkBinomialPMFInto(b *testing.B) {
	for _, n := range []int{10, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			dst := make([]float64, n+1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := BinomialPMFInto(dst, n, 0.9); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCalibratorCached shows the grid cache turning Monte-Carlo
// calibration into a map lookup (the optimisation Fig. 9 depends on).
func BenchmarkCalibratorCached(b *testing.B) {
	c := NewCalibrator(CalibrationConfig{Seed: 1, Replicates: 500}, 0)
	if _, err := c.Threshold(10, 50, 0.9); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Threshold(10, 50, 0.9); err != nil {
			b.Fatal(err)
		}
	}
}
