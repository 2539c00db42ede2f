package wire

import (
	"math"
	"testing"

	"honestplayer/internal/stats"
)

// predictorCases are fixed histograms, window counts and p̂, with the bits
// the predictor maps them to. Receivers on every GOARCH rebuild a chain's
// distances from these same bits, so a change to the predictor's arithmetic
// is a change to the wire: it needs a new wire.VersionV2, and this golden is
// where it shows first.
var predictorCases = []struct {
	name string
	hist []float64
	w    int
	p    float64
	want uint64
}{
	{"honest", []float64{0, 0, 0, 0, 0, 0, 0, 1, 4, 15, 30}, 50, 472.0 / 500, 0x3fb67faf9c241a50},
	{"honest, short", []float64{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3}, 4, 38.0 / 40, 0x3fe4e77a3a11ba37},
	{"below one half", []float64{1, 4, 6, 5, 3, 1, 0, 0, 0, 0, 0}, 20, 57.0 / 200, 0x3fd028673c9f8520},
	{"one half", []float64{0, 0, 1, 2, 5, 6, 4, 1, 1, 0, 0}, 20, 0.5, 0x3fcc666666666668},
	{"near zero", []float64{98, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 100, 1.0 / 500, 0x3f4767b445b434be},
	{"near one", []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 99}, 100, 999.0 / 1000, 0x3f277fb1e21427aa},
	{"zero", []float64{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, 5, 0, 0},
	{"one", []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5}, 5, 1, 0},
	{"nan", []float64{0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 3}, 4, math.NaN(), 0x7ff8000000000001},
	{"window of one", []float64{3, 9}, 12, 0.75, 0},
	{"window of fifteen", []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 3, 3}, 10, 136.0 / 150, 0x3fd13f989e320372},
	{"window of forty", append(make([]float64, 36), 1, 2, 1, 0, 0), 4, 148.0 / 160, 0x3fe76681b9fde26b},
}

// TestPredictorGolden pins the predictor's output bits.
func TestPredictorGolden(t *testing.T) {
	for _, tc := range predictorCases {
		pr := newPredictor(len(tc.hist) - 1)
		pr.fill(tc.p)
		if got := pr.distance(tc.hist, tc.w); got != tc.want {
			t.Errorf("%s: %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}

// TestPredictorTracksTheTesters: the prediction is a good one — its
// residual against the distance a tester computes from math.Exp and
// math.Log fits a varint of two bytes — and exact at the point masses.
func TestPredictorTracksTheTesters(t *testing.T) {
	for _, tc := range predictorCases[:8] {
		counts := make([]int64, len(tc.hist))
		for k, c := range tc.hist {
			counts[k] = int64(c)
		}
		d := testerDistance(t, counts, tc.p)
		off := predictionError(d, tc.want)
		if off >= 1<<14 || (tc.p == 0 || tc.p == 1) && off != 0 {
			t.Errorf("%s: prediction %#016x is %d (zig-zag) from the tester's %#016x", tc.name, tc.want, off, math.Float64bits(d))
		}
	}
}

// testerDistance is the distance a behaviour tester computes for the window
// histogram counts against B(len(counts)−1, p).
func testerDistance[C int64 | uint32](t testing.TB, counts []C, p float64) float64 {
	t.Helper()
	pmf := make([]float64, len(counts))
	if err := stats.BinomialPMFInto(pmf, len(counts)-1, p); err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range counts {
		total += int64(c)
	}
	d, err := stats.L1CountsDistance(counts, total, pmf)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
