package feedback

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// naiveOrder is the re-order of §4 over a plain record slice: the clients
// sorted by their record count, descending, then by ID, and each client's
// records laid out in that order, in time order.
func naiveOrder(ref []Feedback) []Feedback {
	type group struct {
		client    EntityID
		count, at int // its records, and where its next one goes
	}
	var groups []group
	index := make(map[EntityID]int) // a client's group
	for _, f := range ref {
		g, ok := index[f.Client]
		if !ok {
			g = len(groups)
			index[f.Client] = g
			groups = append(groups, group{client: f.Client})
		}
		groups[g].count++
	}
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		a, b := groups[i], groups[j]
		if a.count != b.count {
			return b.count - a.count
		}
		return strings.Compare(string(a.client), string(b.client))
	})
	at := 0
	for _, g := range order {
		groups[g].at = at
		at += groups[g].count
	}
	out := make([]Feedback, len(ref))
	for _, f := range ref {
		g := &groups[index[f.Client]]
		out[g.at] = f
		g.at++
	}
	return out
}

// CollusionOrder returns a new history of h's records in naiveOrder, its time
// column started in h's form: the definition CollusionWindows is held to.
func (h *History) CollusionOrder() *History {
	out := NewHistoryLike(h, h.Len())
	for _, f := range naiveOrder(h.Records()) {
		if err := out.Append(f); err != nil {
			panic(err)
		}
	}
	return out
}

// suffixWindows returns every suffix's counts CollusionWindows yields.
func suffixWindows(h *History, m, n, stride int) [][]int {
	var out [][]int
	h.CollusionWindows(m, n, stride, func(counts []int) bool {
		out = append(out, slices.Clone(counts))
		return true
	})
	return out
}

// naiveCollusionWindows is suffixWindows over a plain record slice. orders
// holds naiveOrder of ref's suffixes by length, filled as they are asked, so
// several m and strides over one slice order each suffix once.
func naiveCollusionWindows(ref []Feedback, m, n, stride int, orders map[int][]Feedback) [][]int {
	var out [][]int
	for ; n > 0; n -= stride {
		o, ok := orders[n]
		if !ok {
			o = naiveOrder(ref[len(ref)-n:])
			orders[n] = o
		}
		out = append(out, naiveWindows(o, m, true))
	}
	return out
}

// naiveWindows is WindowCounts[FromEnd] over a plain record slice.
func naiveWindows(ref []Feedback, m int, fromEnd bool) []int {
	k := len(ref) / m
	start := 0
	if fromEnd {
		start = len(ref) - k*m
	}
	out := make([]int, 0, k)
	for w := 0; w < k; w++ {
		good := 0
		for _, f := range ref[start+w*m : start+(w+1)*m] {
			if f.Good() {
				good++
			}
		}
		out = append(out, good)
	}
	return out
}

// derived is what sameAs holds a history to that depends on the reference
// slice alone. FuzzHistoryOps derives it once for each span of an input's
// records it checks, however many histories and views of the span it holds
// to it.
type derived struct {
	good, clients int
	collusion     [][][]int // CollusionWindows of each of collusionChecks
	windows       [][]int   // WindowCounts of each of windowChecks
	columns       []byte    // columns that decoded to the slice
}

// collusionChecks are the (m, stride) pairs sameAs asks CollusionWindows of a
// history of n records: at most nine suffixes of a long history, and past 55
// records both strides are n/8, the same call, checked once.
func collusionChecks(n int) [][2]int {
	var out [][2]int
	for _, m := range []int{1, 3, 10} {
		for i, stride := range []int{1, 7} {
			stride = max(stride, n/8)
			if i > 0 && stride == max(1, n/8) {
				continue
			}
			out = append(out, [2]int{m, stride})
		}
	}
	return out
}

// windowChecks are the (m, fromEnd) pairs sameAs asks WindowCounts[FromEnd].
var windowChecks = []struct {
	m       int
	fromEnd bool
}{{1, false}, {1, true}, {3, false}, {3, true}, {10, false}, {10, true}}

// derive computes the reference side of sameAs's checks over ref.
func derive(ref []Feedback) *derived {
	d := &derived{}
	clients := make(map[EntityID]struct{})
	for _, f := range ref {
		if f.Good() {
			d.good++
		}
		clients[f.Client] = struct{}{}
	}
	d.clients = len(clients)
	orders := make(map[int][]Feedback)
	for _, c := range collusionChecks(len(ref)) {
		d.collusion = append(d.collusion, naiveCollusionWindows(ref, c[0], len(ref), c[1], orders))
	}
	for _, c := range windowChecks {
		d.windows = append(d.windows, naiveWindows(ref, c.m, c.fromEnd))
	}
	return d
}

// sameAs holds every read accessor of h against the reference slice.
func sameAs(t *testing.T, what string, h *History, ref []Feedback) {
	t.Helper()
	sameAsDerived(t, what, h, ref, derive(ref))
}

// sameAsDerived is sameAs with ref's side of the checks derived already.
func sameAsDerived(t *testing.T, what string, h *History, ref []Feedback, d *derived) {
	t.Helper()
	if h.Len() != len(ref) {
		t.Fatalf("%s: Len %d, want %d", what, h.Len(), len(ref))
	}
	recs, outcomes := h.Records(), h.Outcomes()
	good := 0
	for i, want := range ref {
		if got := h.At(i); got != want || recs[i] != want {
			t.Fatalf("%s: record %d is %v (Records: %v), want %v", what, i, got, recs[i], want)
		}
		if h.NanosAt(i) != want.Time.UnixNano() || h.ClientAt(i) != want.Client || h.RatingAt(i) != want.Rating {
			t.Fatalf("%s: column accessors disagree with At(%d)", what, i)
		}
		if outcomes[i] != want.Good() {
			t.Fatalf("%s: outcome %d", what, i)
		}
		if want.Good() {
			good++
		}
		if got := h.GoodInRange(0, i+1); got != good {
			t.Fatalf("%s: GoodInRange(0,%d) = %d, want %d", what, i+1, got, good)
		}
	}
	if h.GoodCount() != d.good || h.DistinctClients() != d.clients {
		t.Fatalf("%s: GoodCount %d DistinctClients %d, want %d and %d", what, h.GoodCount(), h.DistinctClients(), d.good, d.clients)
	}
	for i, c := range collusionChecks(len(ref)) {
		if got := suffixWindows(h, c[0], len(ref), c[1]); !reflect.DeepEqual(got, d.collusion[i]) {
			t.Fatalf("%s: CollusionWindows(%d, %d, %d) %v, want %v", what, c[0], len(ref), c[1], got, d.collusion[i])
		}
	}
	// Columns byte-equal to ones that decoded to ref decode to ref.
	if cols := h.AppendColumns(nil); !bytes.Equal(cols, d.columns) {
		dec, rest, err := DecodeColumns(h.Server(), cols)
		if err != nil || len(rest) != 0 || dec.Len() != len(ref) {
			t.Fatalf("%s: column round trip: %v, %d bytes left", what, err, len(rest))
		}
		for i, want := range ref {
			if got := dec.At(i); got != want {
				t.Fatalf("%s: record %d decodes from the columns as %v, want %v", what, i, got, want)
			}
		}
		d.columns = cols
	}
	for i, c := range windowChecks {
		got, err := h.windowCounts(c.m, c.fromEnd)
		if err != nil || !reflect.DeepEqual(got, d.windows[i]) {
			t.Fatalf("%s: windows m=%d fromEnd=%v: %v (%v), want %v", what, c.m, c.fromEnd, got, err, d.windows[i])
		}
	}
}

// FuzzHistoryOps drives the columnar history and a naive []Feedback side by
// side through every mutating and view-taking operation; each byte of the
// input is one operation: below 0x80 an append some milliseconds on, else
// op%8 picks a snapshot view (0), a suffix view (1), a clone (2), an owner
// check (3), or an append that moves the time column (ADR 0018): some
// nanoseconds on, rescaling it to 1 (4); 2^31 of the current step on,
// widening it (5); or before the first record (6, 7). Views taken along the
// way are re-checked at the end, after the owner has grown past them.
func FuzzHistoryOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 0x83, 0x80, 0x81, 0x82, 9, 10})
	f.Add([]byte{0, 0, 0, 0x81, 0x81, 0x81, 0x81, 1})
	f.Add([]byte{0x83, 0x80, 0x82})
	f.Add([]byte{8, 17, 26, 35, 0x83, 44, 53, 0x80, 0x80, 62, 0x82, 7})
	// Appends across three 64-record good-bit words, a snapshot view and an
	// owner check on either side of each boundary, fresh clients among them.
	var ops []byte
	for i := 0; len(ops) < 240; i++ {
		ops = append(ops, byte(i*5%128))
		if n := i + 1; n%64 <= 1 || n%64 == 63 {
			ops = append(ops, 0x80, 0x83)
		}
	}
	f.Add(ops)
	// A 16-record suffix view at every length from 1 to 150, so at every
	// bit offset mod 64 (twice), each checked through every accessor.
	ops = nil
	for i := 0; i < 150; i++ {
		ops = append(ops, byte(i*3%128), 0x81)
	}
	f.Add(ops)
	// Snapshot views, clones and suffix views on either side of the word
	// boundaries at 64 and 128 records.
	ops = nil
	for i := 0; i < 63; i++ {
		ops = append(ops, byte(i%16))
	}
	ops = append(ops, 0x80, 0x82, 8, 0x80, 0x83, 0, 6, 0x80, 0x83)
	for i := 0; i < 61; i++ {
		ops = append(ops, byte(i%16+6))
	}
	ops = append(ops, 0x80, 1, 0x80, 9, 0x82, 0x81, 0x83)
	f.Add(ops)
	// Times that move the column, a view and an owner check around each:
	// before the first record, a rescale to nanoseconds, a widening.
	f.Add([]byte{1, 2, 0x86, 0x80, 3, 0x83, 0x84, 0x80, 4, 0x82, 0x85, 0x80, 0x83, 5, 0x87, 0x81})
	f.Add([]byte{0, 0, 0x87, 0x80, 0x85, 0x83, 2, 0x80, 0x84, 0x82, 0x86, 0x83})
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := NewHistory("srv")
		var ref []Feedback
		// check holds hist to ref[lo:hi], deriving the reference side once a
		// span: records only ever join ref's end, so a span's records are
		// the same at every check.
		memo := make(map[[2]int]*derived)
		check := func(what string, hist *History, lo, hi int) {
			t.Helper()
			d := memo[[2]int{lo, hi}]
			if d == nil {
				d = derive(ref[lo:hi])
				memo[[2]int{lo, hi}] = d
			}
			sameAsDerived(t, what, hist, ref[lo:hi], d)
		}
		type frozen struct {
			view *History
			n    int // the records ref held when the view was taken
		}
		var views []frozen
		first := time.Unix(1_700_000_000, 0).UTC()
		at, fresh := first, 0
		for _, op := range ops {
			if op < 0x80 || op%8 >= 4 { // append: client from the low bits, rating from bit 3
				stamp, prev := &at, at
				switch {
				case op < 0x80:
					at = at.Add(time.Duration(op%3) * time.Millisecond) // equal times included
				case op%8 == 4:
					at = at.Add(time.Duration(op>>3%5) * time.Nanosecond)
				case op%8 == 5:
					at = at.Add((1<<31 + 1) * time.Millisecond)
				default:
					before := first.Add(-time.Duration(op>>3) * time.Second)
					stamp = &before
				}
				client := EntityID([]string{"a", "b", "cc", "d", "e", "f"}[op%7%6])
				if op%7 == 6 { // a client never seen before, as a Sybil stream sends
					fresh++
					client = EntityID(fmt.Sprintf("new-%d", fresh))
				}
				rec := Feedback{Time: *stamp, Server: "srv", Client: client, Rating: Negative}
				if op&8 == 0 {
					rec.Rating = Positive
				}
				if rec.Validate() != nil {
					// Enough widening steps pass 2262, which unix nanoseconds
					// cannot hold: Append refuses the record, the history
					// stays as it was (the next check holds it to ref), and
					// the clock steps back.
					if err := h.Append(rec); !errors.Is(err, ErrTimeRange) {
						t.Fatalf("Append at %v: %v, want ErrTimeRange", rec.Time, err)
					}
					at = prev
					continue
				}
				if err := h.Append(rec); err != nil {
					t.Fatal(err)
				}
				ref = append(ref, rec)
				continue
			}
			switch op % 4 {
			case 0:
				views = append(views, frozen{h.SnapshotView(), len(ref)})
			case 1:
				n := int(op>>3) % (len(ref) + 2)
				check("suffix view", h.SuffixView(n), max(0, len(ref)-n), len(ref))
			case 2:
				c := h.Clone()
				check("clone", c, 0, len(ref))
				if err := c.AppendOutcome("only-in-clone", true, at); err != nil {
					t.Fatal(err)
				}
				check("owner after clone grew", h, 0, len(ref))
			case 3:
				check("owner", h, 0, len(ref))
			}
		}
		check("owner at end", h, 0, len(ref))
		for _, v := range views {
			check("snapshot view", v.view, 0, v.n)
		}
		check("rebuilt from records", historyOf(t, "srv", ref), 0, len(ref))
	})
}

// TestSnapshotViewsUnderAppend: readers walk earlier snapshot views — the
// columns, the good-bits and the client dictionary — while the owner keeps
// appending new records and new clients. Every other record names a client
// never seen before, so the builder behind the names regrows under live
// views. Views are taken every 100 records, on either side of each 64-record
// good-bit word — so most end inside a word whose later bits the owner is
// still setting — and just before each regrowth of the names; each is read
// once while the owner appends and once after. The times are whole seconds
// until record 1500, which is a millisecond off and rescales the time
// column, and nanoseconds off from record 3000, which widens it; views are
// taken on either side of both. Run under -race.
func TestSnapshotViewsUnderAppend(t *testing.T) {
	h := NewHistory("srv")
	var ref []Feedback
	type frozen struct {
		view *History
		want []Feedback
	}
	var views []frozen
	read := func(v frozen) {
		view, want := v.view, v.want
		good := 0
		for j, f := range want {
			if got := view.At(j); got != f || view.ClientAt(j) != f.Client {
				t.Errorf("view of %d: record %d is %v, want %v", len(want), j, got, f)
				return
			}
			if f.Good() {
				good++
			}
		}
		if view.GoodCount() != good {
			t.Errorf("view of %d: GoodCount %d, want %d", len(want), view.GoodCount(), good)
		}
		if got := suffixWindows(view, 3, len(want), len(want)); !reflect.DeepEqual(got, naiveCollusionWindows(want, 3, len(want), len(want), map[int][]Feedback{})) {
			t.Errorf("view of %d: CollusionWindows %v", len(want), got)
		}
		half := view.SuffixView(len(want) / 2)
		if got, wantGood := half.GoodCount(), view.GoodInRange(len(want)-len(want)/2, len(want)); got != wantGood {
			t.Errorf("view of %d: suffix GoodCount %d, want %d", len(want), got, wantGood)
		}
		if got := suffixWindows(half, 2, half.Len(), half.Len()); !reflect.DeepEqual(got, naiveCollusionWindows(want, 2, half.Len(), half.Len(), map[int][]Feedback{})) {
			t.Errorf("view of %d: suffix CollusionWindows %v", len(want), got)
		}
	}
	var wg sync.WaitGroup
	take := func() {
		v := frozen{h.SnapshotView(), ref[:len(ref):len(ref)]}
		views = append(views, v)
		wg.Add(1)
		go func() {
			defer wg.Done()
			read(v)
		}()
	}
	for i := 0; i < 4000; i++ {
		c := EntityID("c" + string(rune('a'+i/2%26)) + string(rune('a'+i/52%26)))
		if i%2 == 1 {
			c = EntityID(fmt.Sprintf("fresh-%d", i))
		}
		if h.b != nil && h.b.Len()+len(c) > h.b.Cap() {
			take()
		}
		at := time.Unix(int64(i), 0).UTC()
		switch {
		case i == 1500:
			at = at.Add(time.Millisecond)
		case i >= 3000:
			at = at.Add(time.Duration(i))
		}
		scale, narrow := h.scale, h.t64 == nil
		rec := Feedback{Time: at, Server: "srv", Client: c, Rating: Rating(1 + i*i%7%2)}
		if err := h.Append(rec); err != nil {
			t.Fatal(err)
		}
		ref = append(ref, rec)
		if n := len(ref); n%100 == 1 || (n+1)%64 <= 2 || h.scale != scale || narrow != (h.t64 == nil) {
			take()
		}
	}
	wg.Wait()
	for _, v := range views {
		read(v)
	}
	if h.t64 == nil || views[0].view.t64 != nil {
		t.Fatal("the time column did not widen, or widened under an early view")
	}
}

// TestTimesRescale: a time the scale does not divide shrinks it to the gcd
// and rewrites the quotients into a fresh array; a view taken before keeps
// its own quotients and scale. Times before the first record take negative
// quotients.
func TestTimesRescale(t *testing.T) {
	h := NewHistory("srv")
	add := func(at time.Time) {
		t.Helper()
		if err := h.AppendOutcome("c", true, at); err != nil {
			t.Fatal(err)
		}
	}
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < 100; i++ {
		add(base.Add(time.Duration(i) * time.Second))
	}
	add(base.Add(-time.Hour))
	if h.scale != 1e9 || h.t32[100] != -3600 || h.t64 != nil {
		t.Fatalf("whole seconds: scale %d, quotient %d before the first", h.scale, h.t32[100])
	}
	before, ref := h.SnapshotView(), h.Records()
	add(base.Add(100*time.Second + 250*time.Millisecond))
	if h.scale != 250e6 || h.t32[99] != 4*99 || h.t64 != nil || &h.t32[0] == &before.t32[0] {
		t.Fatalf("a quarter second: scale %d, quotient %d", h.scale, h.t32[99])
	}
	if before.scale != 1e9 || before.t32[99] != 99 || !reflect.DeepEqual(before.Records(), ref) {
		t.Fatal("a view taken before the rescale reads differently")
	}
	sameAs(t, "rescaled", h, append(ref, h.At(101)))
}

// TestTimesWiden: a quotient that would leave int32 widens the time column
// to raw times with one copy; a view taken before keeps reading the 32-bit
// quotients it was taken with, and appends after the widening go to the
// wide column whatever their time.
func TestTimesWiden(t *testing.T) {
	h := NewHistory("srv")
	add := func(at time.Time) {
		t.Helper()
		if err := h.AppendOutcome("c", true, at); err != nil {
			t.Fatal(err)
		}
	}
	base := time.Unix(1_700_000_000, 0)
	for i := 0; i < 100; i++ {
		add(base.Add(time.Duration(i) * time.Millisecond))
	}
	add(base.Add(math.MaxInt32 * time.Millisecond))
	add(base.Add(-math.MaxInt32 * time.Millisecond))
	if h.t64 != nil || h.t32[100] != math.MaxInt32 || h.t32[101] != -math.MaxInt32 {
		t.Fatal("the largest int32 quotients widened the column")
	}
	sameAs(t, "quotients 2^32 apart", h, h.Records())
	before, ref := h.SnapshotView(), h.Records()
	add(base.Add(-math.MaxInt32*time.Millisecond - 2*time.Millisecond))
	if h.t32 != nil || h.t64 == nil || h.NanosAt(102) != base.UnixNano()-(math.MaxInt32+2)*1e6 {
		t.Fatal("a quotient below -2^31 did not widen the column")
	}
	if before.t64 != nil || !reflect.DeepEqual(before.Records(), ref) {
		t.Fatal("a view taken before the widening reads differently")
	}
	add(base.Add(time.Second))
	if h.Len() != 104 || h.NanosAt(103) != base.UnixNano()+1e9 {
		t.Fatalf("an append after the widening: %v", h.At(103))
	}
	sameAs(t, "widened", h, h.Records())
	if like := NewHistoryLike(h, 4); like.t64 == nil {
		t.Fatal("a history started in a wide history's form is narrow")
	}

	// A rescale that would take a quotient out of int32 widens instead.
	h = NewHistory("srv")
	add(base)
	add(base.Add(2 * time.Millisecond))
	add(base.Add(1 << 31 * time.Millisecond))
	if h.t64 != nil || h.scale != 2e6 || h.t32[2] != 1<<30 {
		t.Fatalf("scale %d, quotient %d", h.scale, h.t32[2])
	}
	add(base.Add(time.Millisecond))
	if h.t64 == nil || h.NanosAt(2) != base.UnixNano()+1<<31*1e6 || h.NanosAt(3) != base.UnixNano()+1e6 {
		t.Fatal("a rescale past int32 did not widen the column")
	}

	// Narrow quotients whose steps leave int32: every step but the last is
	// a multiple of 3 ms, and the last is one mod 2^32 but not in fact.
	h = NewHistory("srv")
	for _, ms := range []time.Duration{0, 3, 2147483646, -2147483647} {
		add(base.Add(ms * time.Millisecond))
	}
	if h.t64 != nil || h.scale != 1e6 {
		t.Fatalf("scale %d, wide %v", h.scale, h.t64 != nil)
	}
	sameAs(t, "quotient steps past int32", h, h.Records())
}

// TestCollusionOrderColumns: a collusion-ordered history, whose times step
// backwards between issuer groups and start in its source's form, writes
// the same column bytes as the same records appended to a fresh history,
// and decodes back to them.
func TestCollusionOrderColumns(t *testing.T) {
	for _, step := range []time.Duration{time.Second, time.Millisecond, 1} {
		h := NewHistory("srv")
		for i := 0; i < 300; i++ {
			at := time.Unix(1_700_000_000, 0).Add(time.Duration(i+i*7%10) * step)
			if err := h.AppendOutcome(EntityID(fmt.Sprintf("c%d", i*i%13)), i%4 != 0, at); err != nil {
				t.Fatal(err)
			}
		}
		co := h.CollusionOrder()
		cols := co.AppendColumns(nil)
		if fresh := historyOf(t, "srv", co.Records()).AppendColumns(nil); !bytes.Equal(cols, fresh) {
			t.Fatalf("step %v: the collusion order writes %x, the same records appended %x", step, cols, fresh)
		}
		dec, rest, err := DecodeColumns("srv", cols)
		if err != nil || len(rest) != 0 {
			t.Fatalf("step %v: %v, %d bytes left", step, err, len(rest))
		}
		if !reflect.DeepEqual(dec.Records(), co.Records()) || !bytes.Equal(dec.AppendColumns(nil), cols) {
			t.Fatalf("step %v: the collusion order did not round-trip", step)
		}
	}
}

// TestValidateTimeRange: a time that unix nanoseconds cannot carry would be
// hashed, ordered and persisted as a different instant than it was
// submitted with, so it is not a valid record.
func TestValidateTimeRange(t *testing.T) {
	ok := Feedback{Server: "s", Client: "c", Rating: Positive}
	for _, at := range []time.Time{
		time.Unix(0, 0),
		time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2262, 4, 11, 23, 47, 16, 854775807, time.UTC),
		time.Unix(0, math.MinInt64),
		time.Unix(0, math.MaxInt64).In(time.FixedZone("y", -7200)),
		time.Date(2024, 5, 6, 7, 8, 9, 10, time.FixedZone("x", 3600)),
	} {
		ok.Time = at
		if err := ok.Validate(); err != nil {
			t.Errorf("%v rejected: %v", at, err)
		}
	}
	for _, at := range []time.Time{
		{},
		time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2262, 4, 11, 23, 47, 16, 854775808, time.UTC),
		time.Unix(0, math.MinInt64).Add(-1),
		time.Unix(0, math.MaxInt64).Add(1).In(time.FixedZone("y", -7200)),
		time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC),
	} {
		ok.Time = at
		if err := ok.Validate(); !errors.Is(err, ErrTimeRange) {
			t.Errorf("%v: Validate = %v, want ErrTimeRange", at, err)
		}
		if err := NewHistory("s").Append(ok); !errors.Is(err, ErrTimeRange) {
			t.Errorf("%v: Append = %v, want ErrTimeRange", at, err)
		}
		if _, err := AppendBinary(nil, ok); !errors.Is(err, ErrTimeRange) {
			t.Errorf("%v: AppendBinary = %v, want ErrTimeRange", at, err)
		}
	}
	// The bounds checked on seconds and nanoseconds are the round trip's.
	for _, edge := range []time.Time{time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64), {}, time.Unix(0, 0)} {
		for _, d := range []time.Duration{-time.Second - 1, -time.Second, -2, -1, 0, 1, 2, time.Second, time.Second + 1, 1 << 62, -1 << 62} {
			at := edge.Add(d)
			if got, want := nanosHold(at), time.Unix(0, at.UnixNano()).Equal(at); got != want {
				t.Errorf("%v: nanosHold = %v, the round trip says %v", at, got, want)
			}
		}
	}
}

// TestDecodedColumnsTakeAppends: a history decoded from its columns is a
// working history — the next Append finds its old clients in the dictionary
// instead of adding them twice, and leaves earlier views alone.
func TestDecodedColumnsTakeAppends(t *testing.T) {
	h := NewHistory("srv")
	var ref []Feedback
	add := func(h *History, at int64, c EntityID, r Rating) {
		t.Helper()
		f := Feedback{Time: time.Unix(at, 0).UTC(), Server: "srv", Client: c, Rating: r}
		if err := h.Append(f); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		add(h, int64(i), EntityID("c"+string(rune('a'+i%3))), Rating(1+i%2))
	}
	ref = h.Records()
	got, rest, err := DecodeColumns("srv", h.AppendColumns([]byte("prefix"))[len("prefix"):])
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v, %d bytes left", err, len(rest))
	}
	if got.SizeBytes() > h.SizeBytes() {
		t.Fatalf("decoded history accounts %d B, the appended one %d B", got.SizeBytes(), h.SizeBytes())
	}
	view := got.SnapshotView()
	add(got, 20, "ca", Positive)
	add(got, 21, "cz", Negative)
	add(h, 20, "ca", Positive)
	add(h, 21, "cz", Negative)
	sameAs(t, "decoded then appended", got, h.Records())
	sameAs(t, "view from before the appends", view, ref)
	if !reflect.DeepEqual(got.AppendColumns(nil), h.AppendColumns(nil)) {
		t.Fatal("decoded-then-appended history encodes differently from the appended one")
	}
	if _, _, err := DecodeColumns("", h.AppendColumns(nil)); !errors.Is(err, ErrEmptyEntity) {
		t.Fatalf("decode for an empty server: %v", err)
	}
}

// TestDecodedColumnsKeepLongIDs: a snapshot written before ids were
// bounded may hold a client id no record may now carry; its history still
// decodes, so boot does not fall back past that snapshot.
func TestDecodedColumnsKeepLongIDs(t *testing.T) {
	long := EntityID(bytes.Repeat([]byte{'h'}, maxEntityLen+1))
	if err := NewHistory("srv").AppendOutcome(long, true, time.Unix(1, 0)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("append of a %d-byte id: %v", len(long), err)
	}
	h := NewHistory("srv")
	slot, err := h.Intern(long)
	if err != nil {
		t.Fatal(err)
	}
	h.AppendSlot(time.Unix(1, 0).UnixNano(), slot, true)
	got, _, err := DecodeColumns("srv", h.AppendColumns(nil))
	if err != nil || got.Len() != 1 || got.ClientAt(0) != long {
		t.Fatalf("decode: %v", err)
	}
}

// TestDecodedRecordBytes: a record of a decoded history costs its 32-bit
// time quotient, a 16-bit client slot, its good-bit and 1/64 of a rank
// entry — ≈ 6.2 B, and at most 6.5 B with what the allocator rounds each
// column up to — beside the dictionary of a 100-client pool.
func TestDecodedRecordBytes(t *testing.T) {
	const n = 10000
	h := NewHistory("srv")
	for i := 0; i < n; i++ {
		if err := h.AppendOutcome(EntityID(fmt.Sprintf("client-%d", i*7%100)), i%10 != 0, time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := DecodeColumns("srv", h.AppendColumns(nil))
	if err != nil {
		t.Fatal(err)
	}
	dict := dictBytes(got)
	per := float64(got.SizeBytes()-dict) / n
	t.Logf("%.2f B/record beside a %d B dictionary", per, dict)
	if got.t32 == nil {
		t.Fatal("whole seconds decoded into a wide time column")
	}
	if per > 6.5 {
		t.Errorf("a decoded record accounts %.2f B, want at most 6.5", per)
	}
}

// dictBytes is what SizeBytes charges h's client dictionary: the builder,
// the end offsets and the table.
func dictBytes(h *History) int {
	return 32 + h.b.Cap() + cap(h.ends)*4 + cap(h.table)*4
}

// TestDecodedDictionaryBytes: the dictionary of a decoded history of 160
// clients with 9-byte ids — about what each of ingest_durable's servers
// holds — costs at most 24 B a client, every byte of it included: the
// names, their end offsets, the table and the builder.
func TestDecodedDictionaryBytes(t *testing.T) {
	const clients = 160
	h := NewHistory("srv")
	for i := 0; i < 10*clients; i++ {
		if err := h.AppendOutcome(EntityID(fmt.Sprintf("peer-%04d", i*7%clients)), i%10 != 0, time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := DecodeColumns("srv", h.AppendColumns(nil))
	if err != nil {
		t.Fatal(err)
	}
	per := float64(dictBytes(got)) / clients
	t.Logf("%.1f B/client: %d B of names, %d ends, a table of %d", per, got.b.Cap(), cap(got.ends), len(got.table))
	if per > 24 {
		t.Errorf("a decoded client accounts %.1f B, want at most 24", per)
	}
}

// TestInternTableGrowth: the table stays the least power of two the
// dictionary fills at most ¾, and on either side of every boundary where it
// doubles, up to 4,096 clients, intern returns the slot a reference map
// gives for every id, adding none, and finds no slot for an id it lacks.
func TestInternTableGrowth(t *testing.T) {
	h := NewHistory("srv")
	ref := make(map[EntityID]uint32)
	for n := 1; n <= 4096; n++ {
		c := EntityID(fmt.Sprintf("id-%d", n))
		if got := h.intern(c); got != uint32(n-1) {
			t.Fatalf("client %d interned to slot %d", n, got)
		}
		ref[c] = uint32(n - 1)
		size := len(h.table)
		if size&(size-1) != 0 || 4*n > 3*size || size > 1 && 4*n <= 3*size/2 {
			t.Fatalf("%d clients in a table of %d", n, size)
		}
		if 4*(n+1) <= 3*size && 4*(n-1) > 3*size/2 {
			continue // neither just below a doubling nor just past one
		}
		for id, slot := range ref {
			if got := h.intern(id); got != slot {
				t.Fatalf("at %d clients, %q interned to slot %d, want %d", n, id, got, slot)
			}
		}
		if len(h.ends) != n || h.table[h.probe("absent")] != 0 {
			t.Fatalf("at %d clients: %d in the dictionary, or a slot for an absent id", n, len(h.ends))
		}
	}
}

// TestSlotsWiden: the client that takes the dictionary past 65,536 ids
// widens the slot column to 32 bits with one copy; a view taken before
// keeps reading the 16-bit column it was taken with.
func TestSlotsWiden(t *testing.T) {
	h := NewHistory("srv")
	for i := 0; i < wideSlots; i++ {
		if err := h.AppendOutcome(EntityID(fmt.Sprintf("c%d", i)), i%3 != 0, time.Unix(int64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	before, ref := h.SnapshotView(), h.Records()
	if h.wide() || h.client32 != nil {
		t.Fatal("16-bit slots hold 65,536 clients")
	}
	if err := h.AppendOutcome("one-more", true, time.Unix(wideSlots, 0)); err != nil {
		t.Fatal(err)
	}
	if !h.wide() || h.client16 != nil || h.slot(wideSlots) != wideSlots || h.slot(wideSlots-1) != wideSlots-1 {
		t.Fatal("the 65,537th client did not widen the slots")
	}
	if before.wide() || !reflect.DeepEqual(before.Records(), ref) {
		t.Fatal("a view taken before the widening reads differently")
	}
	if err := h.AppendOutcome("c7", false, time.Unix(wideSlots+1, 0)); err != nil {
		t.Fatal(err)
	}
	if h.Len() != wideSlots+2 || h.ClientAt(wideSlots+1) != "c7" || h.RatingAt(wideSlots+1) != Negative {
		t.Fatalf("an append of a known client on wide slots: %v", h.At(h.Len()-1))
	}
}
