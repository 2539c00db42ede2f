package feedback

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"
	"time"
	"unsafe"
)

// History errors.
var (
	// ErrServerMismatch reports an append whose feedback names a different
	// server than the history belongs to.
	ErrServerMismatch = errors.New("feedback: server mismatch")
	// ErrBadWindow reports an invalid window size.
	ErrBadWindow = errors.New("feedback: invalid window size")
	// ErrHistoryFull reports a client dictionary that cannot grow: a
	// limit of the history, not a fault of the record.
	ErrHistoryFull = errors.New("feedback: history full")
)

// wideSlots is the dictionary size above which client slots need 32 bits.
const wideSlots = 1 << 16

// clientSeed keys every history's client table. It is drawn once per
// process, so a stream of chosen ids cannot aim at one probe run: the
// resistance to hash flooding a Go map has (ADR 0012).
var clientSeed = maphash.MakeSeed()

// History is the append-only transaction history of a single server: the
// time-ordered sequence of feedbacks its transactions received. Records are
// held as parallel columns — about 6.2 B each: a 32-bit time quotient, a
// 16-bit client slot and one good-bit — with the server ID stored once (ADRs
// 0004, 0011, 0018).
// Client IDs are interned in a per-history dictionary that is columnar too:
// one arena of name bytes, a 4-byte end offset per client and, for the
// writer, a seeded open-addressing table of slots (ADR 0012). A rank index
// over the good-bits keeps range statistics — the foundation of both trust
// functions and behaviour tests — O(1).
//
// History is not safe for concurrent use; the store layer serialises access.
type History struct {
	server EntityID
	// One element per record. Columns are append-only, which is what keeps
	// views O(1) and append-safe.
	//
	// The transaction times, unix nanoseconds: record i's is base + t32[i]·
	// scale, wrapping as times.go's differences do, until a quotient would
	// leave int32; then t64 holds the times themselves, with one copy, and
	// t32 is nil (ADR 0018). base is the first record's time in a history
	// that began empty; scale divides every time's distance from it, and is
	// 0 while every time equals base (every quotient is then 0). inv is the
	// inverse of scale's odd part modulo 2^64: multiplying by it divides
	// exactly, which is how an append tests the scale without a division. A
	// time the scale does not divide shrinks it to the gcd, rewriting the
	// quotients into a fresh array, so that views keep theirs.
	base  int64
	scale uint64
	inv   uint64
	t32   []int32
	t64   []int64
	// Index into clients: client16 while the dictionary holds at most
	// wideSlots ids, client32 (and client16 nil) once it holds more.
	client16 []uint16
	client32 []uint32
	// The good-bits: record i is bit p%64 of word p/64, p = off+i. bits
	// holds the completed words only; the partial last word is last, held
	// by value so that a view copies it and a writer never rewrites an array
	// element a view can see. Bits of last past the final record are zero.
	bits []uint64
	last uint64
	// off is the bit of the first word at which record 0 sits: non-zero
	// only in a suffix view, whose first word also holds records before it.
	off int
	// rank[w] counts the good bits in the words before word w, those below
	// off included; len(rank) == len(bits)+1. Only differences are
	// meaningful, and, unsigned, they are exact for any history of fewer
	// than 2³² records.
	rank []uint32
	// The client dictionary in first-appearance order, shared with views
	// like the columns: slot s is names[ends[s-1]:ends[s]], from 0 for slot
	// 0. A suffix view may see entries none of its records use.
	names string
	ends  []uint32
	// Writer-only, never handed to a view; nil until the first intern that
	// needs them. b holds the bytes names reads: it writes only past the
	// length a view holds, and a regrowth leaves old views the old buffer.
	// table is open addressing with linear probing under clientSeed,
	// holding slot+1 (0 is free), a power of two at most ¾ full.
	b     *strings.Builder
	table []uint32
	// lineage names the columns' line of descent: appends and whole views
	// keep it, and a history built afresh — empty, decoded, rebuilt around
	// an out-of-order record, cloned — draws a new one. Two histories of one
	// lineage hold the same records up to the shorter's length. A suffix
	// view, whose first record is not its history's, has none: 0; nor has a
	// history of no server, which no store or connection holds.
	lineage uint64
}

// lineages draws every history's lineage, from 1.
var lineages struct {
	sync.Mutex
	last uint64
}

// newLineage returns a lineage no history has had for a history of server,
// or none for a history of no server.
func newLineage(server EntityID) uint64 {
	if server == "" {
		return 0
	}
	lineages.Lock()
	defer lineages.Unlock()
	lineages.last++
	return lineages.last
}

// NewHistory returns an empty history for the given server, of a lineage
// of its own. A history of no server, "", takes records through AppendSlot
// alone — an accumulator's copy of the records it consumed is one — and has
// no lineage.
func NewHistory(server EntityID) *History {
	return &History{server: server, rank: []uint32{0}, lineage: newLineage(server)}
}

// Lineage returns h's lineage: equal and non-zero for two histories only
// when one holds the other's records as its first ones, which is what
// appending to a history and viewing it whole keep, and nothing else does.
func (h *History) Lineage() uint64 { return h.lineage }

// Server returns the server this history belongs to.
func (h *History) Server() EntityID { return h.server }

// Len returns the number of recorded transactions.
func (h *History) Len() int { return len(h.t32) + len(h.t64) }

// At returns the i-th record (0 = oldest), its time in UTC as every decoded
// record's is. It panics on out-of-range i, matching slice semantics.
func (h *History) At(i int) Feedback {
	return Feedback{
		Time:   time.Unix(0, h.NanosAt(i)).UTC(), // checks i
		Server: h.server,
		Client: h.client(h.slot(i)),
		Rating: h.rating(i),
	}
}

// NanosAt, ClientAt and RatingAt read one field of the i-th record without
// materialising the rest. Ratings are binary (Rating.Valid), so a record's
// rating is its good-bit.
func (h *History) NanosAt(i int) int64 {
	if h.t64 == nil {
		return h.base + int64(h.t32[i])*int64(h.scale)
	}
	return h.t64[i]
}
func (h *History) ClientAt(i int) EntityID { return h.client(h.slot(i)) }
func (h *History) RatingAt(i int) Rating {
	h.check(i, i+1)
	return h.rating(i)
}

// rating reads the good-bit of record i, which the caller has checked.
func (h *History) rating(i int) Rating {
	p := h.off + i
	return Negative + Rating(h.word(p>>6)>>(p&63)&1)
}

// check panics unless [lo, hi) is a range of records, as slicing a column
// with it would.
func (h *History) check(lo, hi int) {
	if uint(lo) > uint(hi) || uint(hi) > uint(h.Len()) {
		panic("feedback: record range out of bounds")
	}
}

// wide reports whether client slots are 32-bit.
func (h *History) wide() bool { return len(h.ends) > wideSlots }

// client returns the id in dictionary slot s: a substring of names, so
// reading one allocates nothing.
func (h *History) client(s uint32) EntityID {
	lo := uint32(0)
	if s > 0 {
		lo = h.ends[s-1]
	}
	return EntityID(h.names[lo:h.ends[s]])
}

// slot returns the i-th record's dictionary slot.
func (h *History) slot(i int) uint32 {
	if h.wide() {
		return h.client32[i]
	}
	return uint32(h.client16[i])
}

// word returns good-bit word w: a completed one, or the partial last.
func (h *History) word(w int) uint64 {
	if w < len(h.bits) {
		return h.bits[w]
	}
	return h.last
}

// goodBefore returns the rank at bit p: the good bits before it, counted
// from the first word's first bit.
func (h *History) goodBefore(p int) uint32 {
	w := p >> 6
	return rankIn(h.rank[w], h.word(w), p)
}

// rankIn is the rank at bit p of word x, whose own rank is r.
func rankIn(r uint32, x uint64, p int) uint32 {
	return r + uint32(bits.OnesCount64(x&(1<<(p&63)-1)))
}

// Grow pre-allocates capacity for n additional records, so bulk loaders
// don't pay incremental reallocation.
func (h *History) Grow(n int) {
	if n <= 0 {
		return
	}
	if h.t64 != nil {
		h.t64 = slices.Grow(h.t64, n)
	} else {
		h.t32 = slices.Grow(h.t32, n)
	}
	if h.wide() {
		h.client32 = slices.Grow(h.client32, n)
	} else {
		h.client16 = slices.Grow(h.client16, n)
	}
	words := (h.off+h.Len()+n)>>6 - len(h.bits)
	h.bits = slices.Grow(h.bits, words)
	h.rank = slices.Grow(h.rank, words)
}

// Append validates f and adds it as the newest record.
func (h *History) Append(f Feedback) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if f.Server != h.server {
		return fmt.Errorf("%w: history %q, feedback %q", ErrServerMismatch, h.server, f.Server)
	}
	slot, err := h.Intern(f.Client)
	if err != nil {
		return err
	}
	h.push(f.Time.UnixNano(), slot, f.Good())
	return nil
}

// Intern returns the dictionary slot of c, a valid client id, adding it on
// first appearance. A writer that appends many records of one client looks
// it up once and appends them with AppendSlot.
func (h *History) Intern(c EntityID) (uint32, error) {
	if uint64(len(h.names))+uint64(len(c)) > math.MaxUint32 {
		return 0, fmt.Errorf("%w: client dictionary past 4 GiB", ErrHistoryFull)
	}
	return h.intern(c), nil
}

// AppendSlot adds the record of the client in slot, which Intern returned,
// at the given unix nanoseconds as the newest record. Nothing is validated:
// it is Append for a record already known valid, such as a Batch's.
func (h *History) AppendSlot(nanos int64, slot uint32, good bool) {
	h.push(nanos, slot, good)
}

// intern returns c's dictionary slot, adding it on first appearance. The
// id that takes the dictionary past wideSlots widens the slot column: one
// copy, after which views taken before keep reading the 16-bit one.
func (h *History) intern(c EntityID) uint32 {
	if h.b == nil { // a new history, or a clone: own a copy of the names
		h.b = new(strings.Builder)
		h.b.WriteString(h.names)
		h.names = h.b.String()
		h.rehash()
	}
	i := h.probe(c)
	if s := h.table[i]; s != 0 {
		return s - 1
	}
	slot := uint32(len(h.ends))
	h.b.WriteString(string(c))
	h.names = h.b.String()
	h.ends = append(h.ends, uint32(len(h.names)))
	if 4*len(h.ends) > 3*len(h.table) {
		h.rehash()
	} else {
		h.table[i] = slot + 1
	}
	if len(h.ends) == wideSlots+1 {
		h.client32 = make([]uint32, len(h.client16), cap(h.client16))
		for i, s := range h.client16 {
			h.client32[i] = uint32(s)
		}
		h.client16 = nil
	}
	return slot
}

// probe returns the table position holding c's slot, or the free one where
// it belongs.
func (h *History) probe(c EntityID) int {
	mask := len(h.table) - 1
	for i := int(maphash.String(clientSeed, string(c))) & mask; ; i = (i + 1) & mask {
		if s := h.table[i]; s == 0 || h.client(s-1) == c {
			return i
		}
	}
}

// rehash sizes the table for the dictionary and inserts every id in slot
// order. It returns an id met twice, which only a decoded dictionary can
// hold, or "".
func (h *History) rehash() EntityID {
	size := 1
	for 4*len(h.ends) > 3*size {
		size *= 2
	}
	h.table = make([]uint32, size)
	for s := range h.ends {
		c := h.client(uint32(s))
		i := h.probe(c)
		if h.table[i] != 0 {
			return c
		}
		h.table[i] = uint32(s) + 1
	}
	return ""
}

func (h *History) push(nanos int64, slot uint32, good bool) {
	p := h.off + h.Len()
	h.pushTime(nanos)
	if h.wide() {
		h.client32 = append(h.client32, slot)
	} else {
		h.client16 = append(h.client16, uint16(slot))
	}
	if good {
		h.last |= 1 << (p & 63)
	}
	if p&63 == 63 { // the word is complete: it joins bits, never to change
		h.bits = append(h.bits, h.last)
		h.rank = append(h.rank, h.rank[len(h.rank)-1]+uint32(bits.OnesCount64(h.last)))
		h.last = 0
	}
}

// pushTime appends t to the time column. A narrow column takes its
// quotient when the scale divides t - base and the quotient's magnitude
// fits 31 bits. The test multiplies by inv instead of dividing: the product
// is the quotient exactly when multiplying it back by the scale gives the
// distance without carry. At scale 0 it holds for t = base alone.
func (h *History) pushTime(t int64) {
	if h.t64 == nil {
		if len(h.t32) == 0 && h.scale == 0 {
			h.base = t
		}
		d := t - h.base // wraps, as times.go's differences do
		m := magnitude(d)
		q := (m >> bits.TrailingZeros64(h.scale)) * h.inv
		if hi, lo := bits.Mul64(q, h.scale); hi != 0 || lo != m || q > math.MaxInt32 {
			h.fitTime(t, d)
			return
		}
		if d < 0 {
			q = -q
		}
		h.t32 = append(h.t32, int32(q))
		return
	}
	h.t64 = append(h.t64, t)
}

// fitTime appends t, at distance d from base, that the narrow column's fast
// path turned down. When the scale does not divide d it shrinks to their
// gcd, the quotients rewritten into a fresh array so that views keep theirs;
// the scale only shrinks along a chain of divisors, so a history rescales at
// most 64 times. When a quotient would not fit at that scale, the column
// widens instead: one copy into raw times, and views taken before keep
// reading their quotients.
func (h *History) fitTime(t, d int64) {
	g := gcd(h.scale, magnitude(d)) // d ≠ 0: the fast path takes d = 0 at every scale
	if magnitude(d)/g <= math.MaxInt32 && h.rescale(h.scale/g) {
		h.scale, h.inv = g, inverse(g)
		h.pushTime(t) // the fast path takes it now
		return
	}
	t64 := make([]int64, len(h.t32), cap(h.t32)+1)
	for i := range t64 {
		t64[i] = h.NanosAt(i)
	}
	h.t64, h.t32 = append(t64, t), nil
}

// rescale multiplies every quotient by factor — 0 at scale 0, where every
// quotient is 0 — into a fresh array, or reports false when one would no
// longer fit.
func (h *History) rescale(factor uint64) bool {
	var most uint64
	for _, x := range h.t32 {
		most = max(most, magnitude(int64(x)))
	}
	if hi, lo := bits.Mul64(most, factor); hi != 0 || lo > math.MaxInt32 {
		return false
	}
	t32 := make([]int32, len(h.t32), cap(h.t32))
	for i, x := range h.t32 {
		t32[i] = x * int32(factor)
	}
	h.t32 = t32
	return true
}

// inverse returns the inverse of scale's odd part modulo 2^64, by Newton's
// iteration: an odd x is its own inverse to 3 bits, and each step doubles
// the bits that are right.
func inverse(scale uint64) uint64 {
	x := scale >> bits.TrailingZeros64(scale)
	inv := x
	for range 5 {
		inv *= 2 - x*inv
	}
	return inv
}

// NewHistoryLike returns an empty history of h's server, with room for n
// records, whose time column starts in h's form: the same base, scale and
// width. Rebuilding h's records into it — with a record inserted, or in
// another order — then finds every time already fits, instead of
// rediscovering the scale record by record.
func NewHistoryLike(h *History, n int) *History {
	out := NewHistory(h.server)
	out.base, out.scale, out.inv = h.base, h.scale, h.inv
	if h.t64 != nil {
		out.t64 = make([]int64, 0, n)
	}
	out.Grow(n)
	return out
}

// AppendOutcome adds a synthetic record with the given client and outcome,
// stamping it with a monotonically increasing logical time. It is the
// convenience path used by simulations.
func (h *History) AppendOutcome(client EntityID, good bool, at time.Time) error {
	r := Negative
	if good {
		r = Positive
	}
	return h.Append(Feedback{Time: at, Server: h.server, Client: client, Rating: r})
}

// view returns a read-only history over records [lo, Len()) that shares the
// columns and the dictionary and carries neither builder nor table. Its
// first word is the one record lo sits in; off says where. A whole view
// keeps h's lineage, a suffix view has none.
func (h *History) view(lo int) *History {
	p, lineage := h.off+lo, h.lineage
	if lo > 0 {
		lineage = 0
	}
	v := &History{
		server:  h.server,
		base:    h.base,
		scale:   h.scale,
		inv:     h.inv,
		bits:    h.bits[p>>6:],
		last:    h.last,
		off:     p & 63,
		rank:    h.rank[p>>6:],
		names:   h.names,
		ends:    h.ends,
		lineage: lineage,
	}
	if h.t64 != nil {
		v.t64 = h.t64[lo:]
	} else {
		v.t32 = h.t32[lo:]
	}
	if h.wide() {
		v.client32 = h.client32[lo:]
	} else {
		v.client16 = h.client16[lo:]
	}
	return v
}

// SnapshotView returns an immutable view of h at its current length,
// sharing the underlying storage — an O(1) alternative to Clone. Appending
// to h afterwards leaves the view unchanged: appends either write past the
// view's length or reallocate, existing elements are never rewritten, and
// the partial last good-bit word is the view's own copy. A history has no
// other mutation, so a view stays valid for as long as it is held (ADR 0016).
func (h *History) SnapshotView() *History { return h.view(0) }

// histStruct is a History's own size: 2 string headers, 8 slice headers and
// 7 words (5 of them 64-bit): 280 B with 64-bit words, 160 B with 32-bit.
const histStruct = int(unsafe.Sizeof(History{}))

// SizeBytes returns the approximate resident heap footprint of this history:
// the struct, the capacity of its columns, and the client dictionary — the
// builder's capacity (the names a view holds, in a view), the end offsets
// and the table. Shared views alias the owner's arrays, so the store
// accounts each backing array exactly once (at its owning working history).
// The memory-budget governor uses this as the history half of a server's
// resident size.
func (h *History) SizeBytes() int {
	const builderStruct = int(unsafe.Sizeof(strings.Builder{}))
	n := histStruct + cap(h.t32)*4 + cap(h.t64)*8 + cap(h.client16)*2 + cap(h.client32)*4 +
		cap(h.bits)*8 + cap(h.rank)*4 + cap(h.ends)*4 + cap(h.table)*4
	if h.b != nil {
		return n + builderStruct + h.b.Cap()
	}
	return n + len(h.names)
}

// GoodCount returns the number of good transactions in the whole history.
func (h *History) GoodCount() int { return h.GoodInRange(0, h.Len()) }

// GoodInRange returns the number of good transactions among records
// [lo, hi). It panics when the range is invalid, matching slice semantics.
func (h *History) GoodInRange(lo, hi int) int {
	h.check(lo, hi)
	return int(h.goodBefore(h.off+hi) - h.goodBefore(h.off+lo))
}

// GoodRatio returns the fraction of good transactions (the average trust
// value), or 0 for an empty history.
func (h *History) GoodRatio() float64 {
	if h.Len() == 0 {
		return 0
	}
	return float64(h.GoodCount()) / float64(h.Len())
}

// Outcomes returns the good/bad sequence as booleans, oldest first.
func (h *History) Outcomes() []bool {
	out := make([]bool, h.Len())
	for i := range out {
		out[i] = h.RatingAt(i).Good()
	}
	return out
}

// Records returns a copy of all feedback records, oldest first.
func (h *History) Records() []Feedback {
	out := make([]Feedback, h.Len())
	for i := range out {
		out[i] = h.At(i)
	}
	return out
}

// Clone returns an independent deep copy, of a lineage of its own: its
// appends are not h's.
func (h *History) Clone() *History {
	c := h.view(0)
	c.lineage = newLineage(c.server)
	c.t32 = slices.Clone(c.t32)
	c.t64 = slices.Clone(c.t64)
	c.client16 = slices.Clone(c.client16)
	c.client32 = slices.Clone(c.client32)
	c.bits = slices.Clone(c.bits)
	c.rank = slices.Clone(c.rank)
	c.ends = slices.Clone(c.ends)
	return c
}

// WindowCounts splits the history into ⌊n/m⌋ consecutive windows of m
// transactions starting from the oldest record (any trailing partial window
// is dropped, per §3.2) and returns the good-transaction count of each.
func (h *History) WindowCounts(m int) ([]int, error) {
	return h.windowCounts(m, false)
}

// WindowCountsFromEnd is WindowCounts with the windows aligned to the newest
// record instead (any partial window of the oldest records is dropped).
// End-alignment is what the multi-testing scheme uses: the window counts of
// the most-recent-l−k suffix are then literally a suffix of the full table,
// which is what makes the optimised scheme linear-time.
func (h *History) WindowCountsFromEnd(m int) ([]int, error) {
	return h.windowCounts(m, true)
}

func (h *History) windowCounts(m int, fromEnd bool) ([]int, error) {
	if m <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadWindow, m)
	}
	k := h.Len() / m
	counts := make([]int, k)
	p := h.off
	if fromEnd {
		p += h.Len() - k*m
	}
	// Each boundary's rank is read once and serves the two windows it
	// separates; boundaries come in order, so a word is loaded once.
	w := p >> 6
	x, r := h.word(w), h.rank[w]
	prev := rankIn(r, x, p)
	for i := range counts {
		p += m
		if p>>6 != w {
			w = p >> 6
			x, r = h.word(w), h.rank[w]
		}
		next := rankIn(r, x, p)
		counts[i] = int(next - prev)
		prev = next
	}
	return counts, nil
}

// SuffixView returns a read-only view of the most recent n records as a new
// History sharing the underlying storage. Mutating the parent after taking a
// view invalidates the view. It returns the whole history when n exceeds its
// length.
func (h *History) SuffixView(n int) *History {
	if n >= h.Len() {
		return h
	}
	return h.view(h.Len() - n)
}

// CollusionWindows yields, longest first, the window good-counts of h's
// most recent n, n−stride, n−2·stride, … records, each re-ordered as the
// collusion-resilient test of §4 reads it: grouped by client, larger groups
// first, groups of one size in client ID order, each in time order. Its
// windows are of m records and end at its last position. It stops when
// yield returns false or no record is left; counts is reused between calls.
// m and stride are positive, and n is at most h.Len().
//
// Clients are ranked by ID once and each one's good-count prefix laid out in
// one array. Suffixes nest, so the next one only moves the first position of
// the clients of the records it drops; a counting sort on group sizes,
// stable in rank, then orders its groups.
func (h *History) CollusionWindows(m, n, stride int, yield func(counts []int) bool) {
	if h.wide() {
		collusionWindows(h, h.client32[h.Len()-n:], m, stride, yield)
	} else {
		collusionWindows(h, h.client16[h.Len()-n:], m, stride, yield)
	}
}

// collusionWindows is CollusionWindows over the slots of its longest suffix.
func collusionWindows[S uint16 | uint32](h *History, slots []S, m, stride int, yield func([]int) bool) {
	n, p := len(slots), h.off+h.Len()-len(slots) // p: the good-bit of slots[0]'s record
	sizes := make([]int, len(h.ends))
	byID := make([]uint32, 0, countSlots(sizes, slots))
	for s, size := range sizes {
		if size > 0 {
			byID = append(byID, uint32(s))
		}
	}
	slices.SortFunc(byID, func(a, b uint32) int { return strings.Compare(string(h.client(a)), string(h.client(b))) })
	// Client r's group in the suffix has hi[r]-lo[r] records, of which
	// prefix[lo[r]+j]-prefix[lo[r]] among the first j are good.
	rank := make([]uint32, len(h.ends))
	lo, hi := make([]int, len(byID)), make([]int, len(byID))
	most, next := 0, 0
	for r, s := range byID {
		rank[s], lo[r], hi[r] = uint32(r), next, next
		next += sizes[s] + 1
		most = max(most, sizes[s])
	}
	prefix := make([]uint32, next)
	for i, s := range slots {
		r, q := rank[s], p+i
		prefix[hi[r]+1] = prefix[hi[r]] + uint32(h.word(q>>6)>>(q&63)&1)
		hi[r]++
	}
	bucket, order, counts := make([]int, most+1), make([]int, len(byID)), make([]int, 0, n/m)
	for length, dropped := n, 0; length > 0; length -= stride {
		for ; dropped < n-length; dropped++ {
			lo[rank[slots[dropped]]]++
		}
		// Counting sort, largest group first: bucket[size] becomes the
		// position of the size's first group, then its next free one.
		top := 0
		for r := range lo {
			bucket[hi[r]-lo[r]]++
			top = max(top, hi[r]-lo[r])
		}
		groups := 0
		for size := top; size > 0; size-- {
			groups, bucket[size] = groups+bucket[size], groups
		}
		for r := range lo {
			if size := hi[r] - lo[r]; size > 0 {
				order[bucket[size]] = r
				bucket[size]++
			}
		}
		clear(bucket[:top+1])
		counts = counts[:0]
		skip, fill, good := length%m, 0, uint32(0)
		for _, r := range order[:groups] {
			a := lo[r] + min(skip, hi[r]-lo[r])
			skip -= a - lo[r]
			for a < hi[r] {
				take := min(m-fill, hi[r]-a)
				good += prefix[a+take] - prefix[a]
				a, fill = a+take, fill+take
				if fill == m {
					counts = append(counts, int(good))
					fill, good = 0, 0
				}
			}
		}
		if !yield(counts) {
			return
		}
	}
}

// countSlots adds each record to its slot's size and returns how many
// slots it took from zero.
func countSlots[S uint16 | uint32](sizes []int, slots []S) (distinct int) {
	for _, c := range slots {
		if sizes[c] == 0 {
			distinct++
		}
		sizes[c]++
	}
	return distinct
}

// DistinctClients returns the number of distinct feedback issuers (the size
// of the supporter base plus detractors).
func (h *History) DistinctClients() int {
	sizes := make([]int, len(h.ends))
	if h.wide() {
		return countSlots(sizes, h.client32)
	}
	return countSlots(sizes, h.client16)
}

// String implements fmt.Stringer.
func (h *History) String() string {
	return fmt.Sprintf("history{server=%s n=%d good=%d}", h.server, h.Len(), h.GoodCount())
}
