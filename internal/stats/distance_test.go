package stats

import (
	"math"
	"testing"
)

func TestL1HistDistance(t *testing.T) {
	b := MustBinomial(10, 0.9)
	h := MustHistogram(10)
	// A point mass at 9 vs B(10, 0.9).
	for i := 0; i < 100; i++ {
		_ = h.Add(9)
	}
	got, err := L1HistDistance(h, b)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for k := 0; k <= 10; k++ {
		emp := 0.0
		if k == 9 {
			emp = 1
		}
		want += math.Abs(emp - b.PMF(k))
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("L1 = %v, want %v", got, want)
	}
}

func TestL1HistDistanceErrors(t *testing.T) {
	b := MustBinomial(10, 0.9)
	if _, err := L1HistDistance(MustHistogram(5), b); err == nil {
		t.Fatal("support mismatch must fail")
	}
	if _, err := L1HistDistance(MustHistogram(10), b); err == nil {
		t.Fatal("empty histogram must fail")
	}
}
