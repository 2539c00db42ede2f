package stats

import (
	"math"
	"testing"
)

func TestL1CountsDistance(t *testing.T) {
	pmf := make([]float64, 11)
	if err := BinomialPMFInto(pmf, 10, 0.9); err != nil {
		t.Fatal(err)
	}
	// A point mass at 9 vs B(10, 0.9).
	counts := make([]uint32, 11)
	counts[9] = 100
	got, err := L1CountsDistance(counts, 100, pmf)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for k := 0; k <= 10; k++ {
		emp := 0.0
		if k == 9 {
			emp = 1
		}
		want += math.Abs(emp - pmf[k])
	}
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("L1 = %v, want %v", got, want)
	}
}

func TestL1CountsDistanceErrors(t *testing.T) {
	pmf := make([]float64, 11)
	if err := BinomialPMFInto(pmf, 10, 0.9); err != nil {
		t.Fatal(err)
	}
	if _, err := L1CountsDistance(make([]int64, 6), 1, pmf); err == nil {
		t.Fatal("support mismatch must fail")
	}
	if _, err := L1CountsDistance(make([]int64, 11), 0, pmf); err == nil {
		t.Fatal("empty histogram must fail")
	}
}
