package stats

import (
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := MustHistogram(10)
	if h.Max() != 10 {
		t.Fatalf("Max = %d", h.Max())
	}
	for _, v := range []int{3, 3, 7, 10, 0} {
		if err := h.Add(v); err != nil {
			t.Fatal(err)
		}
	}
	if h.Total() != 5 {
		t.Errorf("Total = %d, want 5", h.Total())
	}
	if h.Count(3) != 2 {
		t.Errorf("Count(3) = %d, want 2", h.Count(3))
	}
	if h.Sum() != 23 {
		t.Errorf("Sum = %d, want 23", h.Sum())
	}
	if got, want := h.Mean(), 23.0/5; got != want {
		t.Errorf("Mean = %v, want %v", got, want)
	}
}

func TestHistogramAddOutOfSupport(t *testing.T) {
	h := MustHistogram(5)
	if err := h.Add(6); err == nil {
		t.Error("Add(6) on support [0,5] must fail")
	}
	if err := h.Add(-1); err == nil {
		t.Error("Add(-1) must fail")
	}
}

func TestHistogramRemove(t *testing.T) {
	h := MustHistogram(5)
	if err := h.Add(2); err != nil {
		t.Fatal(err)
	}
	if err := h.Remove(2); err != nil {
		t.Fatal(err)
	}
	if h.Total() != 0 || h.Sum() != 0 || h.Count(2) != 0 {
		t.Errorf("after add+remove: total=%d sum=%d count=%d", h.Total(), h.Sum(), h.Count(2))
	}
	if err := h.Remove(2); err == nil {
		t.Error("Remove on zero-count bin must fail")
	}
	if err := h.Remove(9); err == nil {
		t.Error("Remove out of support must fail")
	}
}

func TestHistogramEmptyAndFilled(t *testing.T) {
	h := MustHistogram(2)
	for v := 0; v <= h.Max(); v++ {
		if h.Count(v) != 0 {
			t.Fatalf("empty histogram Count(%d) = %d", v, h.Count(v))
		}
	}
	if h.Total() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram: Total = %d, Mean = %v; want 0, 0", h.Total(), h.Mean())
	}
	_ = h.AddAll([]int{0, 1, 1, 2})
	want := []int64{1, 2, 1}
	for v := range want {
		if h.Count(v) != want[v] {
			t.Errorf("Count(%d) = %d, want %d", v, h.Count(v), want[v])
		}
	}
	if h.Total() != 4 || h.Mean() != 1 {
		t.Errorf("Total = %d, Mean = %v; want 4, 1", h.Total(), h.Mean())
	}
}

func TestHistogramResetAndClone(t *testing.T) {
	h := MustHistogram(4)
	_ = h.AddAll([]int{1, 2, 3})
	c := h.Clone()
	h.Reset()
	if h.Total() != 0 {
		t.Error("Reset did not clear")
	}
	if c.Total() != 3 || c.Count(2) != 1 {
		t.Error("Clone affected by Reset")
	}
	_ = c.Add(4)
	if h.Count(4) != 0 {
		t.Error("Clone shares storage with original")
	}
}

func TestHistogramAddAllError(t *testing.T) {
	h := MustHistogram(3)
	if err := h.AddAll([]int{1, 2, 9}); err == nil {
		t.Fatal("AddAll with out-of-support value must fail")
	}
	// The valid prefix was recorded.
	if h.Total() != 2 {
		t.Fatalf("Total = %d after partial AddAll, want 2", h.Total())
	}
}

func TestNewHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(-1); err == nil {
		t.Fatal("NewHistogram(-1) must fail")
	}
	if _, err := NewHistogram(0); err != nil {
		t.Fatalf("NewHistogram(0) failed: %v", err)
	}
}

func TestMustHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustHistogram(-1) did not panic")
		}
	}()
	MustHistogram(-1)
}

func TestHistogramString(t *testing.T) {
	h := MustHistogram(5)
	_ = h.AddAll([]int{1, 1, 4})
	if got := h.String(); got != "hist{1:2 4:1}" {
		t.Errorf("String = %q", got)
	}
}

// Property: incremental add/remove keeps totals consistent with a batch
// rebuild, regardless of operation order.
func TestHistogramIncrementalMatchesBatch(t *testing.T) {
	f := func(raw []uint8) bool {
		const max = 12
		h := MustHistogram(max)
		var kept []int
		for _, r := range raw {
			v := int(r % (max + 1))
			if r%2 == 0 || len(kept) == 0 {
				_ = h.Add(v)
				kept = append(kept, v)
			} else {
				// Remove the most recent kept value.
				last := kept[len(kept)-1]
				kept = kept[:len(kept)-1]
				if err := h.Remove(last); err != nil {
					return false
				}
			}
		}
		batch := MustHistogram(max)
		_ = batch.AddAll(kept)
		if h.Total() != batch.Total() || h.Sum() != batch.Sum() {
			return false
		}
		for v := 0; v <= max; v++ {
			if h.Count(v) != batch.Count(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
