package feedback

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// buildHistory appends outcomes (true = good) from distinct clients.
func buildHistory(t *testing.T, server EntityID, outcomes []bool) *History {
	t.Helper()
	h := NewHistory(server)
	for i, g := range outcomes {
		if err := h.AppendOutcome(EntityID("c"), g, time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func TestHistoryAppendAndCounts(t *testing.T) {
	h := buildHistory(t, "s", []bool{true, false, true, true})
	if h.Len() != 4 {
		t.Fatalf("Len = %d", h.Len())
	}
	if h.GoodCount() != 3 {
		t.Fatalf("GoodCount = %d", h.GoodCount())
	}
	if got := h.GoodRatio(); got != 0.75 {
		t.Fatalf("GoodRatio = %v", got)
	}
	if got := h.GoodInRange(1, 3); got != 1 {
		t.Fatalf("GoodInRange(1,3) = %d, want 1", got)
	}
	if h.Server() != "s" {
		t.Fatalf("Server = %q", h.Server())
	}
}

func TestHistoryEmpty(t *testing.T) {
	h := NewHistory("s")
	if h.GoodRatio() != 0 {
		t.Error("empty GoodRatio must be 0")
	}
	counts, err := h.WindowCounts(10)
	if err != nil || len(counts) != 0 {
		t.Errorf("WindowCounts on empty = %v, %v", counts, err)
	}
}

func TestHistoryAppendValidates(t *testing.T) {
	h := NewHistory("s")
	if err := h.Append(fb("other", "c", Positive, 1)); !errors.Is(err, ErrServerMismatch) {
		t.Errorf("server mismatch = %v", err)
	}
	if err := h.Append(fb("s", "", Positive, 1)); !errors.Is(err, ErrEmptyEntity) {
		t.Errorf("invalid feedback = %v", err)
	}
	if h.Len() != 0 {
		t.Error("failed appends must not modify history")
	}
}

func TestHistoryWindowCounts(t *testing.T) {
	// 7 records, window 3 -> 2 windows, trailing record dropped.
	h := buildHistory(t, "s", []bool{true, true, false, true, false, false, true})
	counts, err := h.WindowCounts(3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{2, 1}
	if len(counts) != 2 || counts[0] != want[0] || counts[1] != want[1] {
		t.Fatalf("WindowCounts = %v, want %v", counts, want)
	}
	// From the end: leading record dropped instead.
	countsEnd, err := h.WindowCountsFromEnd(3)
	if err != nil {
		t.Fatal(err)
	}
	wantEnd := []int{2, 1} // [t,f,t]=2, [f,f,t]=1
	if len(countsEnd) != 2 || countsEnd[0] != wantEnd[0] || countsEnd[1] != wantEnd[1] {
		t.Fatalf("WindowCountsFromEnd = %v, want %v", countsEnd, wantEnd)
	}
}

func TestHistoryWindowCountsBadWindow(t *testing.T) {
	h := buildHistory(t, "s", []bool{true})
	if _, err := h.WindowCounts(0); !errors.Is(err, ErrBadWindow) {
		t.Errorf("WindowCounts(0) = %v", err)
	}
	if _, err := h.WindowCountsFromEnd(-1); !errors.Is(err, ErrBadWindow) {
		t.Errorf("WindowCountsFromEnd(-1) = %v", err)
	}
}

func TestHistorySuffixView(t *testing.T) {
	h := buildHistory(t, "s", []bool{true, false, true, true, false})
	v := h.SuffixView(3)
	if v.Len() != 3 {
		t.Fatalf("suffix len = %d", v.Len())
	}
	if v.GoodCount() != 2 {
		t.Fatalf("suffix good = %d", v.GoodCount())
	}
	if v.At(0) != h.At(2) {
		t.Fatal("suffix view misaligned")
	}
	// Oversized n returns whole history.
	if h.SuffixView(100) != h {
		t.Fatal("oversized suffix must return the receiver")
	}
}

func TestHistoryOutcomesAndRecordsAreCopies(t *testing.T) {
	h := buildHistory(t, "s", []bool{true, false})
	recs := h.Records()
	recs[0].Rating = Negative
	if !h.At(0).Good() {
		t.Fatal("Records exposed internal state")
	}
	outs := h.Outcomes()
	if !outs[0] || outs[1] {
		t.Fatalf("Outcomes = %v", outs)
	}
}

func TestHistoryClone(t *testing.T) {
	h := buildHistory(t, "s", []bool{true, false})
	c := h.Clone()
	if err := c.AppendOutcome("x", true, time.Unix(99, 0)); err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 || c.Len() != 3 {
		t.Fatalf("clone not independent: %d vs %d", h.Len(), c.Len())
	}
}

// TestCollusionWindowsGroupOrder: at m = 1 the windows are the re-ordered
// outcomes — larger groups first, each in time order.
func TestCollusionWindowsGroupOrder(t *testing.T) {
	h := NewHistory("s")
	seq := []struct {
		c EntityID
		g bool
	}{
		{"a", true}, {"b", true}, {"a", false}, {"c", false}, {"a", false}, {"b", false},
	}
	for i, e := range seq {
		if err := h.AppendOutcome(e.c, e.g, time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	// a: + − −, b: + −, c: −; the suffix of 4: a: − −, b: −, c: −; of 2: a: −, b: −.
	want := [][]int{{1, 0, 0, 1, 0, 0}, {0, 0, 0, 0}, {0, 0}}
	if got := suffixWindows(h, 1, 6, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("windows %v, want %v", got, want)
	}
	// Windows end at the last position: the first n mod m fall in none.
	if got := suffixWindows(h, 4, 6, 6); !reflect.DeepEqual(got, [][]int{{1}}) {
		t.Fatalf("windows of 4 %v", got)
	}
}

// TestCollusionWindowsTieBreak: groups of one size go in client ID order,
// whichever came first and whatever the dictionary's order.
func TestCollusionWindowsTieBreak(t *testing.T) {
	h := NewHistory("s")
	_ = h.AppendOutcome("z", true, time.Unix(0, 0))
	_ = h.AppendOutcome("a", false, time.Unix(1, 0))
	_ = h.AppendOutcome("B", true, time.Unix(2, 0))
	_ = h.AppendOutcome("a", false, time.Unix(3, 0))
	if got := suffixWindows(h, 1, 4, 1); !reflect.DeepEqual(got, [][]int{{0, 0, 1, 1}, {0, 0, 1}, {1, 0}, {0}}) {
		t.Fatalf("tie break not by client id: %v", got)
	}
}

func TestCollusionOrder(t *testing.T) {
	h := NewHistory("s")
	// colluder issues 3 feedbacks, victims 1 each.
	_ = h.AppendOutcome("victim1", false, time.Unix(0, 0))
	_ = h.AppendOutcome("colluder", true, time.Unix(1, 0))
	_ = h.AppendOutcome("colluder", true, time.Unix(2, 0))
	_ = h.AppendOutcome("victim2", false, time.Unix(3, 0))
	_ = h.AppendOutcome("colluder", true, time.Unix(4, 0))

	ordered := h.CollusionOrder()
	if ordered.Len() != h.Len() {
		t.Fatalf("reorder changed length: %d", ordered.Len())
	}
	wantClients := []EntityID{"colluder", "colluder", "colluder", "victim1", "victim2"}
	for i, want := range wantClients {
		if got := ordered.At(i).Client; got != want {
			t.Fatalf("position %d client = %s, want %s", i, got, want)
		}
	}
	if ordered.GoodCount() != h.GoodCount() {
		t.Fatal("reorder changed good count")
	}
}

// Property: CollusionOrder is a permutation — same multiset of records.
func TestCollusionOrderIsPermutation(t *testing.T) {
	f := func(raw []uint8) bool {
		h := NewHistory("s")
		for i, r := range raw {
			client := EntityID(rune('a' + r%5))
			good := r%3 != 0
			if err := h.AppendOutcome(client, good, time.Unix(int64(i), 0)); err != nil {
				return false
			}
		}
		ordered := h.CollusionOrder()
		if ordered.Len() != h.Len() || ordered.GoodCount() != h.GoodCount() {
			return false
		}
		count := func(hh *History) map[Feedback]int {
			m := make(map[Feedback]int)
			for i := 0; i < hh.Len(); i++ {
				m[hh.At(i)]++
			}
			return m
		}
		a, b := count(h), count(ordered)
		if len(a) != len(b) {
			return false
		}
		for k, v := range a {
			if b[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: prefix sums agree with direct recount for random ranges.
func TestGoodInRangeMatchesRecount(t *testing.T) {
	f := func(raw []bool, loRaw, hiRaw uint8) bool {
		h := NewHistory("s")
		for i, g := range raw {
			if err := h.AppendOutcome("c", g, time.Unix(int64(i), 0)); err != nil {
				return false
			}
		}
		n := h.Len()
		if n == 0 {
			return true
		}
		lo := int(loRaw) % (n + 1)
		hi := int(hiRaw) % (n + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := 0
		for i := lo; i < hi; i++ {
			if h.At(i).Good() {
				want++
			}
		}
		return h.GoodInRange(lo, hi) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDistinctClients(t *testing.T) {
	h := NewHistory("s")
	for i, c := range []EntityID{"a", "b", "a", "c"} {
		_ = h.AppendOutcome(c, true, time.Unix(int64(i), 0))
	}
	if got := h.DistinctClients(); got != 3 {
		t.Fatalf("DistinctClients = %d", got)
	}
}

func TestHistoryString(t *testing.T) {
	h := buildHistory(t, "srv", []bool{true})
	s := h.String()
	if s == "" || h.Server() != "srv" {
		t.Fatalf("String = %q", s)
	}
}

// TestHistoryLineage: appending and viewing a history whole keep its
// lineage; a history built afresh — new, a clone, one rebuilt like it, a
// reordering — draws one of its own, and a suffix view has none, nor has a
// history of no server.
func TestHistoryLineage(t *testing.T) {
	h := buildHistory(t, "s", []bool{true, false, true})
	l := h.Lineage()
	if l == 0 || buildHistory(t, "s", nil).Lineage() == l {
		t.Fatalf("new histories share lineage %d", l)
	}
	view := h.SnapshotView()
	if err := h.AppendOutcome("c", true, time.Unix(9, 0)); err != nil {
		t.Fatal(err)
	}
	if h.Lineage() != l || view.Lineage() != l {
		t.Fatalf("append and view: lineages %d and %d, want %d", h.Lineage(), view.Lineage(), l)
	}
	if got := h.SuffixView(2).Lineage(); got != 0 {
		t.Fatalf("a suffix view has lineage %d", got)
	}
	if got := h.SuffixView(h.Len()).Lineage(); got != l {
		t.Fatalf("a suffix view of the whole history has lineage %d, want %d", got, l)
	}
	if a, b := NewHistory(""), NewHistory("").Clone(); a.Lineage() != 0 || b.Lineage() != 0 {
		t.Fatalf("a history of no server and its clone have lineages %d and %d", a.Lineage(), b.Lineage())
	}
	seen := map[uint64]string{l: "the history"}
	for name, other := range map[string]*History{
		"a clone":             h.Clone(),
		"a clone of the view": view.Clone(),
		"NewHistoryLike":      NewHistoryLike(h, 4),
		"CollusionOrder":      h.CollusionOrder(),
	} {
		if prev, dup := seen[other.Lineage()]; dup || other.Lineage() == 0 {
			t.Fatalf("%s has lineage %d, as %s", name, other.Lineage(), prev)
		}
		seen[other.Lineage()] = name
	}
}
