package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"honestplayer/internal/feedback"
)

// A connection's history mirror (ADR 0006's seventh amendment). A Scheme 2
// chain is a pure function of the judged history's good bits — its windows
// end at the newest record — so once a connection has carried a server's
// bits, a verdict on that server needs none of its window counts: the
// receiver rebuilds them from the bits it holds. Each binary connection
// mirrors, per server, the good bits it has carried, in a numbered slot; a
// frame whose chains read the mirror carries the bits added since, in a
// mirror section at the head of its payload (frame flag bit 2), after the
// binding section when there is one:
//
//	e      uvarint: the slots the frame evicts
//	e ×    uvarint slot, ascending: each bound, and no row's of the frame
//	r      uvarint: the rows, at least one, one for each chain of the frame
//	       that reads the mirror, in the order the chains come
//	r ×    uvarint slot·4 + op, the slot below maxMirrorSlots, and the
//	       bits a the row adds: op 0 and 1 add that many to a bound slot;
//	       op 2 adds a ≥ 2, a uvarint a − 2 following, to a bound slot; op
//	       3 empties the slot first and adds a ≥ 1, a uvarint a − 1
//	       following
//	bits   the rows' added bits in row order, record order within a row,
//	       low bit first, ⌈Σa/8⌉ bytes, the padding zero
//
// Evictions apply first, then the rows in order; a row's chain reads its
// slot as the row leaves it. The slots hold at most maxMirrorBits bits
// after every row. The writer decides a frame's section when it encodes
// the frame, against the slots the frames before it committed, and commits
// it after the write (Codec.Commit); the reader commits it before it hands
// the frame on, keeping for the frame a view of each row's bits that no
// later commit writes to.
const (
	maxMirrorSlots = 1 << 12
	maxMirrorBits  = 1 << 21
)

// A mirror row's ops: 0 and 1 append that many bits, opAppend more, opReset
// empties the slot and adds at least one.
const (
	opAppend = 2
	opReset  = 3
)

// goodSource is the good bits a mirrored chain is rebuilt from: the history
// an encoder judged, or the bits a reader's slot held for the frame.
type goodSource interface {
	Len() int
	GoodInRange(lo, hi int) int
}

// goodBits is a reader's slot: the bits as History holds them, completed
// words append-only and the partial last one by value, so a copy of it is
// a view that later pushes leave as it is.
type goodBits struct {
	words []uint64
	last  uint64
	n     int
}

func (g *goodBits) Len() int { return g.n }

func (g *goodBits) push(good bool) {
	if good {
		g.last |= 1 << (g.n & 63)
	}
	if g.n++; g.n&63 == 0 {
		g.words = append(g.words, g.last)
		g.last = 0
	}
}

// GoodInRange counts the good bits of records [lo, hi), which the caller
// has checked are among g's.
func (g *goodBits) GoodInRange(lo, hi int) int {
	c := 0
	for lo < hi {
		w, s := lo>>6, lo&63
		x := g.last
		if w < len(g.words) {
			x = g.words[w]
		}
		x >>= s
		width := min(hi-lo, 64-s)
		if width < 64 {
			x &= 1<<width - 1
		}
		c += bits.OnesCount64(x)
		lo += width
	}
	return c
}

// mirror is a connection's mirror at both ends: the writer keeps what each
// slot holds, the reader the bits. An end uses one of the two halves.
type mirror struct {
	mu    sync.Mutex // the writer's half: Commit writes it while encoders read it
	sent  []sentSlot
	slot  map[feedback.EntityID]uint32 // a bound slot's server → the slot
	bound int                          // slots of sent with bits
	total int                          // the bits of sent
	seq   uint64                       // frames committed

	held      []goodBits // the reader's half, which only Commit touches
	heldTotal int
}

// sentSlot is a slot as the writer knows it: the first n records of the
// server's history of the lineage; n is 0 for a free slot.
type sentSlot struct {
	server  feedback.EntityID
	lineage uint64
	n       int
	used    uint64 // the frame that last wrote the slot, for eviction
}

// mirrorRow is one row of a frame's section as its writer planned it: the
// slot holds the first n records of h (of server and lineage) after it, of
// which the slot held the first from before — none with reset.
type mirrorRow struct {
	slot    uint32
	reset   bool
	from, n int
	server  feedback.EntityID
	lineage uint64
	h       *feedback.History
}

// mirrorFrame is what a frame's mirror section does to its connection: at
// the writer, the rows and evictions it encoded, which Commit applies; at
// the reader, after Commit, each row's bits and the section's size, which
// the frame decodes with.
type mirrorFrame struct {
	rows  []mirrorRow
	evict []uint32
	views []goodBits
	size  int
}

// source sets the frame's mirror source to h, the history an assessment
// judged, when the connection can mirror it: d.plan is then the row a chain
// over h adds to the section, d.planEvict the slots it evicts first and
// d.planNeed the bits the two add to the slots. Any other history, and a
// frame that stands alone, has no source.
func (d *frameDict) source(h *feedback.History) {
	d.src, d.planEvict = nil, d.planEvict[:0]
	m := d.mir
	if m == nil || h == nil || h.Lineage() == 0 || h.Len() == 0 || h.Len() > maxMirrorBits {
		return
	}
	if d.mirTotal < 0 {
		m.mu.Lock()
		d.mirTotal = m.total
		m.mu.Unlock()
	}
	row := mirrorRow{server: h.Server(), lineage: h.Lineage(), n: h.Len(), h: h}
	slot, lineage, held, ok := d.mirrorOf(row.server)
	switch {
	case ok && lineage == row.lineage && held <= row.n:
		row.slot, row.from = slot, held
	case ok:
		row.slot, row.reset = slot, true
	default:
		if slot, held, ok = d.freeSlot(); !ok {
			return
		}
		row.slot, row.reset = slot, true
	}
	need := row.n - held // a reset drops what the slot held
	for d.mirTotal+need > maxMirrorBits {
		victim, bits, ok := d.victim(row.slot)
		if !ok {
			return
		}
		d.planEvict = append(d.planEvict, victim)
		need -= bits
	}
	d.plan, d.planNeed, d.src = row, need, h
}

// mirrorOf returns what server's slot holds as the frame would leave it:
// its latest row in the frame, else the connection's, unless the frame
// evicts the slot or gave it to another server.
func (d *frameDict) mirrorOf(server feedback.EntityID) (slot uint32, lineage uint64, n int, ok bool) {
	for i := len(d.mirRows) - 1; i >= 0; i-- {
		if r := &d.mirRows[i]; r.server == server {
			return r.slot, r.lineage, r.n, true
		}
	}
	m := d.mir
	m.mu.Lock()
	defer m.mu.Unlock()
	if slot, ok = m.slot[server]; ok && !d.taken(slot) {
		s := m.sent[slot]
		return slot, s.lineage, s.n, true
	}
	return 0, 0, 0, false
}

// taken reports whether the frame has a row on slot or evicts it.
func (d *frameDict) taken(slot uint32) bool {
	return d.mirTaken[slot] || slices.Contains(d.planEvict, slot)
}

// freeSlot returns the lowest slot that holds nothing and that the frame
// has not taken, or else the one least recently written of those the frame
// has not taken, with the bits it holds, which a reset drops.
func (d *frameDict) freeSlot() (uint32, int, bool) {
	m := d.mir
	m.mu.Lock()
	start := 0
	if m.bound == len(m.sent) {
		start = len(m.sent) // no slot below is free
	}
	for s := start; s < maxMirrorSlots; s++ {
		if (s >= len(m.sent) || m.sent[s].n == 0) && !d.taken(uint32(s)) {
			m.mu.Unlock()
			return uint32(s), 0, true
		}
	}
	m.mu.Unlock()
	return d.victim(maxMirrorSlots)
}

// victim returns the slot, other than not, that was written least recently
// among those the frame has not taken and that hold bits, with its bits.
func (d *frameDict) victim(not uint32) (uint32, int, bool) {
	m := d.mir
	m.mu.Lock()
	defer m.mu.Unlock()
	best, found := uint32(0), false
	for s := range m.sent {
		slot := uint32(s)
		if m.sent[s].n == 0 || slot == not || d.taken(slot) {
			continue
		}
		if !found || m.sent[s].used < m.sent[best].used {
			best, found = slot, true
		}
	}
	if !found {
		return 0, 0, false
	}
	return best, m.sent[best].n, true
}

// mirrorRow adds the planned row, and the evictions it needs, to the
// frame's section: its chain was written to read the mirror.
func (d *frameDict) mirrorRow() {
	for _, slot := range d.planEvict {
		d.mirTaken[slot] = true
	}
	d.mirTaken[d.plan.slot] = true
	d.mirEvict = append(d.mirEvict, d.planEvict...)
	d.planEvict = d.planEvict[:0]
	d.mirTotal += d.planNeed
	d.mirRows = append(d.mirRows, d.plan)
}

// headMirror moves the mirror section of the frame d encoded to the head of
// its payload, buf[at:], and returns the frame's rows and evictions for
// Commit, nil for a frame without a section.
func (d *frameDict) headMirror(buf []byte, at int) ([]byte, *mirrorFrame) {
	if len(d.mirRows) == 0 {
		return buf, nil
	}
	slices.Sort(d.mirEvict)
	sec := binary.AppendUvarint(d.sec[:0], uint64(len(d.mirEvict)))
	for _, slot := range d.mirEvict {
		sec = binary.AppendUvarint(sec, uint64(slot))
	}
	sec = binary.AppendUvarint(sec, uint64(len(d.mirRows)))
	added := 0
	for _, r := range d.mirRows {
		a := r.n - r.from
		switch {
		case r.reset:
			sec = binary.AppendUvarint(sec, uint64(r.slot)<<2|opReset)
			sec = binary.AppendUvarint(sec, uint64(a-1))
		case a < opAppend:
			sec = binary.AppendUvarint(sec, uint64(r.slot)<<2|uint64(a))
		default:
			sec = binary.AppendUvarint(sec, uint64(r.slot)<<2|opAppend)
			sec = binary.AppendUvarint(sec, uint64(a-opAppend))
		}
		added += a
	}
	bitsAt, pos := len(sec), 0
	sec = appendZeros(sec, (added+7)/8)
	for i := range d.mirRows {
		r := &d.mirRows[i]
		for j := r.from; j < r.n; j++ {
			if r.h.RatingAt(j).Good() {
				sec[bitsAt+pos/8] |= 1 << (pos % 8)
			}
			pos++
		}
		r.h = nil
	}
	d.sec = sec
	return insertAt(buf, at, sec), &mirrorFrame{rows: slices.Clone(d.mirRows), evict: slices.Clone(d.mirEvict)}
}

// errMirror refuses a mirror section on a frame whose reader did not commit
// it, which has no bits to read it with.
var errMirror = errors.New("a mirror section the connection did not commit")

// commitSent applies a frame's rows and evictions to the writer's half, as
// the reader applies the section, and refuses a frame encoded against other
// slots than the connection's: one that was never meant to be written.
func (m *mirror) commitSent(f *mirrorFrame) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	for _, slot := range f.evict {
		if int(slot) >= len(m.sent) || m.sent[slot].n == 0 {
			return fmt.Errorf("mirror section evicts slot %d, which holds nothing", slot)
		}
		m.drop(slot)
	}
	for _, r := range f.rows {
		if int(r.slot) >= len(m.sent) {
			m.sent = append(m.sent, make([]sentSlot, int(r.slot)+1-len(m.sent))...)
		}
		s := &m.sent[r.slot]
		if !r.reset && (s.n != r.from || s.server != r.server || s.lineage != r.lineage) {
			return fmt.Errorf("mirror section appends to slot %d, which holds %d records of %q, not %d of %q", r.slot, s.n, s.server, r.from, r.server)
		}
		if s.n > 0 {
			m.drop(r.slot)
		}
		*s = sentSlot{server: r.server, lineage: r.lineage, n: r.n, used: m.seq}
		if m.slot == nil {
			m.slot = make(map[feedback.EntityID]uint32)
		}
		m.slot[r.server] = r.slot
		m.bound++
		m.total += r.n
	}
	return nil
}

// drop empties a bound slot of the writer's half.
func (m *mirror) drop(slot uint32) {
	s := &m.sent[slot]
	if m.slot[s.server] == slot {
		delete(m.slot, s.server)
	}
	m.bound--
	m.total -= s.n
	*s = sentSlot{}
}

// mirrorSection reads a mirror section into the reader's half of m and
// returns the frame's views of its rows. It refuses every section an
// encoder does not write: a slot past the bound, bits for a slot never
// bound, a reset that adds none, an eviction of a slot that holds nothing
// or that a row of the frame writes, slots held past maxMirrorBits.
func (r *breader) mirrorSection(m *mirror) (*mirrorFrame, error) {
	start := len(r.buf)
	ne, err := r.count(1)
	if err != nil {
		return nil, err
	}
	evict := make([]uint32, 0, ne)
	for range ne {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if v >= uint64(len(m.held)) || m.held[v].n == 0 || len(evict) > 0 && uint32(v) <= evict[len(evict)-1] {
			return nil, fmt.Errorf("mirror section: eviction of slot %d", v)
		}
		evict = append(evict, uint32(v))
	}
	nr, err := r.count(1)
	if err != nil {
		return nil, err
	}
	if nr == 0 {
		return nil, fmt.Errorf("mirror section of no rows")
	}
	type row struct {
		slot  uint32
		reset bool
		added int
	}
	rows, added := make([]row, nr), uint64(0)
	for i := range rows {
		head, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		slot, op, a := head>>2, head&3, head&3
		if op >= opAppend {
			if a, err = r.uvarint(); err != nil {
				return nil, err
			}
			if a > maxMirrorBits {
				return nil, fmt.Errorf("mirror section: row %d adds %d bits and more", i, a)
			}
			if op == opAppend {
				a += opAppend
			} else {
				a++
			}
		}
		if slot >= maxMirrorSlots || a > maxMirrorBits {
			return nil, fmt.Errorf("mirror section: row %d adds %d bits to slot %d", i, a, slot)
		}
		if slices.Contains(evict, uint32(slot)) {
			return nil, fmt.Errorf("mirror section: slot %d evicted and written", slot)
		}
		rows[i] = row{uint32(slot), op == opReset, int(a)}
		added += a
	}
	size := (added + 7) / 8
	if size > uint64(len(r.buf)) {
		return nil, fmt.Errorf("mirror section: %d bits in %d bytes", added, len(r.buf))
	}
	packed := r.buf[:size]
	if added%8 != 0 && packed[size-1]>>(added%8) != 0 {
		return nil, fmt.Errorf("mirror section: bit padding")
	}
	r.buf = r.buf[size:]
	for _, slot := range evict {
		m.heldTotal -= m.held[slot].n
		m.held[slot] = goodBits{}
	}
	f := &mirrorFrame{views: make([]goodBits, nr), size: start - len(r.buf)}
	pos := 0
	for i, row := range rows {
		if int(row.slot) >= len(m.held) {
			m.held = append(m.held, make([]goodBits, int(row.slot)+1-len(m.held))...)
		}
		g := &m.held[row.slot]
		if row.reset {
			m.heldTotal -= g.n
			*g = goodBits{}
		} else if g.n == 0 {
			return nil, fmt.Errorf("mirror section: bits for slot %d, which holds none", row.slot)
		}
		if m.heldTotal += row.added; m.heldTotal > maxMirrorBits {
			return nil, fmt.Errorf("mirror section: slots of %d bits, past the %d a connection mirrors", m.heldTotal, maxMirrorBits)
		}
		for range row.added {
			g.push(packed[pos/8]>>(pos%8)&1 != 0)
			pos++
		}
		f.views[i] = *g
	}
	return f, nil
}
