package wire

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"honestplayer/internal/feedback"
)

// A connection's history mirror (conn.go). A Scheme 2 chain is a pure
// function of the judged history's good bits — its windows end at the newest
// record — so once a connection has carried a server's bits, a verdict on
// that server needs none of its window counts: the receiver rebuilds them
// from the bits it holds. A connection mirrors, per server, the good bits it
// has carried, in a numbered slot; a frame whose chains read the mirror
// carries the bits added since, in its mirror section:
//
//	e      uvarint: the slots the frame evicts
//	e ×    uvarint slot, ascending: each bound, and no row's of the frame
//	r      uvarint: the rows, at least one, one for each chain of the frame
//	       that reads the mirror, in the order the chains come
//	r ×    uvarint slot·4 + op, the slot below maxMirrorSlots, and the
//	       bits a the row adds: op 0 and 1 add that many to a bound slot;
//	       op 2 adds a ≥ 2, a uvarint a − 2 following, to a bound slot; op
//	       3 empties the slot first and adds a ≥ 1, a uvarint (a − 1)·2 + g
//	       following, and with g = 1 a byte k ≤ maxGapRice
//	bits   the rows' added bits in row order, record order within a row,
//	       as one stream of bits, low bit first, padded with zeros to a
//	       byte: a row's a bits, or, for a row with g, the gaps between its
//	       bad records — how many good records come before each bad one,
//	       and after the last — each as the Rice code with parameter k
//	       (verdict.go's putRice)
//
// A row that empties its slot carries a whole history's bits, mostly good,
// so its gaps are few: it is written as gaps (g = 1) exactly when they take
// fewer bits than the row has, k the parameter that spends the fewest, the
// smallest on a tie (gapRice). A reader refuses a row in the other spelling
// or with another k.
//
// Evictions apply first, then the rows in order; a row's chain reads its
// slot as the row leaves it. The slots hold at most maxMirrorBits bits
// after every row: the writer evicts the slots written least recently to
// stay within the bounds.
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

// maxGapRice is the largest Rice parameter of a gap: a gap is below
// maxMirrorBits, 2²¹, so no larger k spends fewer bits.
const maxGapRice = 21

// appendGaps appends to gaps the gaps between the bad records of h's first
// a: the good records before each bad one, and after the last.
func appendGaps(gaps []int, h *feedback.History, a int) []int {
	run := 0
	for j := range a {
		if h.RatingAt(j).Good() {
			run++
		} else {
			gaps, run = append(gaps, run), 0
		}
	}
	return append(gaps, run)
}

// gapRice returns the Rice parameter that spends the fewest bits on gaps,
// the smallest on a tie, and the bits it spends: for each gap x, x>>k one
// bits, a zero and k more. The bits are convex in k, as riceParam's are.
func gapRice(gaps []int) (k, bits int) {
	cost := func(k int) int {
		n := len(gaps) * (1 + k)
		for _, x := range gaps {
			n += x >> k
		}
		return n
	}
	bits = cost(0)
	for ; k < maxGapRice; k++ {
		next := cost(k + 1)
		if next >= bits {
			break
		}
		bits = next
	}
	return k, bits
}

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

// mirror is one direction's mirror at one end: the writer keeps what each
// slot holds, the reader the bits.
type mirror struct {
	sent  []sentSlot
	slot  map[feedback.EntityID]uint32 // a bound slot's server → the slot
	bound int                          // slots of sent with bits
	held  []goodBits                   // the reader's slots
	total int                          // the bits the slots hold
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

// source sets the frame's mirror source to h, the history an assessment
// judged, when the connection can mirror it: d.row is then the row a chain
// over h adds to the section, d.rowEvict the slots it evicts first and
// d.rowNeed the bits the two add to the slots. Any other history, and one
// past the bits the connection mirrors — any at zero bounds — has no source.
func (d *frameDict) source(h *feedback.History) {
	d.src, d.rowEvict = nil, d.rowEvict[:0]
	s := d.dir
	if h == nil || h.Lineage() == 0 || h.Len() == 0 || h.Len() > s.mirrorBits {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d.mirTotal < 0 {
		d.mirTotal = s.mirror.total
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
	for d.mirTotal+need > s.mirrorBits {
		victim, bits, ok := d.victim(row.slot)
		if !ok {
			return
		}
		d.rowEvict = append(d.rowEvict, victim)
		need -= bits
	}
	d.row, d.rowNeed, d.src = row, need, h
}

// mirrorOf returns what server's slot holds as the frame would leave it:
// its latest row in the frame, else the connection's, unless the frame
// evicts the slot or gave it to another server. The writer's side is
// locked, as in freeSlot and victim.
func (d *frameDict) mirrorOf(server feedback.EntityID) (slot uint32, lineage uint64, n int, ok bool) {
	for i := len(d.mirRows) - 1; i >= 0; i-- {
		if r := &d.mirRows[i]; r.server == server {
			return r.slot, r.lineage, r.n, true
		}
	}
	m := &d.dir.mirror
	if slot, ok = m.slot[server]; ok && !d.taken(slot) {
		s := m.sent[slot]
		return slot, s.lineage, s.n, true
	}
	return 0, 0, 0, false
}

// taken reports whether the frame has a row on slot or evicts it.
func (d *frameDict) taken(slot uint32) bool {
	return d.mirTaken[slot] || slices.Contains(d.rowEvict, slot)
}

// freeSlot returns the lowest slot that holds nothing and that the frame
// has not taken, or else the one least recently written of those the frame
// has not taken, with the bits it holds, which a reset drops.
func (d *frameDict) freeSlot() (uint32, int, bool) {
	m, start := &d.dir.mirror, 0
	if m.bound == len(m.sent) {
		start = len(m.sent) // no slot below is free
	}
	for s := start; s < d.dir.mirrorSlots; s++ {
		if (s >= len(m.sent) || m.sent[s].n == 0) && !d.taken(uint32(s)) {
			return uint32(s), 0, true
		}
	}
	return d.victim(uint32(d.dir.mirrorSlots))
}

// victim returns the slot, other than not, that was written least recently
// among those the frame has not taken and that hold bits, with its bits.
func (d *frameDict) victim(not uint32) (uint32, int, bool) {
	m := &d.dir.mirror
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
	for _, slot := range d.rowEvict {
		d.mirTaken[slot] = true
	}
	d.mirTaken[d.row.slot] = true
	d.mirEvict = append(d.mirEvict, d.rowEvict...)
	d.rowEvict = d.rowEvict[:0]
	d.mirTotal += d.rowNeed
	d.mirRows = append(d.mirRows, d.row)
}

// appendMirror appends the mirror section of the frame d encoded, when its
// chains read the mirror; p, the frame's plan, records its rows and
// evictions.
func (d *frameDict) appendMirror(sec []byte, p *sections) []byte {
	if len(d.mirRows) == 0 {
		return sec
	}
	slices.Sort(d.mirEvict)
	sec = binary.AppendUvarint(sec, uint64(len(d.mirEvict)))
	for _, slot := range d.mirEvict {
		sec = binary.AppendUvarint(sec, uint64(slot))
	}
	sec = binary.AppendUvarint(sec, uint64(len(d.mirRows)))
	// The gaps of the rows written as gaps, one row's after another's.
	d.rice, d.gaps = d.rice[:0], d.gaps[:0]
	added := 0
	for _, r := range d.mirRows {
		a, k := r.n-r.from, -1
		switch {
		case r.reset:
			sec = binary.AppendUvarint(sec, uint64(r.slot)<<2|opReset)
			from := len(d.gaps)
			d.gaps = appendGaps(d.gaps, r.h, a)
			if gk, bits := gapRice(d.gaps[from:]); bits < a {
				k, a = gk, bits
			} else {
				d.gaps = d.gaps[:from]
			}
			if k < 0 {
				sec = binary.AppendUvarint(sec, uint64(r.n-1)<<1)
			} else {
				sec = append(binary.AppendUvarint(sec, uint64(r.n-1)<<1|1), byte(k))
			}
		case a < opAppend:
			sec = binary.AppendUvarint(sec, uint64(r.slot)<<2|uint64(a))
		default:
			sec = binary.AppendUvarint(sec, uint64(r.slot)<<2|opAppend)
			sec = binary.AppendUvarint(sec, uint64(a-opAppend))
		}
		d.rice = append(d.rice, k)
		added += a
	}
	bitsAt, pos, gaps := len(sec), 0, d.gaps
	sec = appendZeros(sec, (added+7)/8)
	for i := range d.mirRows {
		r := &d.mirRows[i]
		if k := d.rice[i]; k >= 0 {
			for at := -1; at < r.n; gaps = gaps[1:] { // each gap but the last ends at a bad record
				pos = putRice(sec[bitsAt:], pos, gaps[0], k)
				at += gaps[0] + 1
			}
		} else {
			for j := r.from; j < r.n; j++ {
				if r.h.RatingAt(j).Good() {
					sec[bitsAt+pos/8] |= 1 << (pos % 8)
				}
				pos++
			}
		}
		r.h = nil
	}
	p.rows, p.evict = slices.Clone(d.mirRows), slices.Clone(d.mirEvict)
	return sec
}

// commitSent applies a written frame's rows and evictions to the writer's
// half of s's mirror, as the reader applies the section, and refuses what
// the reader refuses of a frame planned against other slots than the
// connection's: one that was never meant to be written.
func (s *side) commitSent(p *sections) error {
	m := &s.mirror
	for _, slot := range p.evict {
		if int(slot) >= len(m.sent) || m.sent[slot].n == 0 {
			return fmt.Errorf("mirror section evicts slot %d, which holds nothing", slot)
		}
		m.drop(slot)
	}
	for _, r := range p.rows {
		if int(r.slot) >= len(m.sent) {
			m.sent = append(m.sent, make([]sentSlot, int(r.slot)+1-len(m.sent))...)
		}
		at := &m.sent[r.slot]
		if !r.reset && (at.n != r.from || at.server != r.server || at.lineage != r.lineage) {
			return fmt.Errorf("mirror section appends to slot %d, which holds %d records of %q, not %d of %q", r.slot, at.n, at.server, r.from, r.server)
		}
		if at.n > 0 {
			m.drop(r.slot)
		}
		*at = sentSlot{server: r.server, lineage: r.lineage, n: r.n, used: s.seq}
		if m.slot == nil {
			m.slot = make(map[feedback.EntityID]uint32)
		}
		m.slot[r.server] = r.slot
		m.bound++
		if m.total += r.n; m.total > s.mirrorBits {
			return fmt.Errorf("mirror section: slots of %d bits, past the %d a connection mirrors", m.total, s.mirrorBits)
		}
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

// mirrorSection reads a mirror section into the reader's half of s's
// mirror, and the frame's views of its rows into p. It refuses every
// section an encoder does not write: a slot past the bound, bits for a slot
// never bound, a reset that adds none, an eviction of a slot that holds
// nothing or that a row of the frame writes, slots held past the bits
// bound, a reset row in the spelling its encoder does not pick.
func (r *breader) mirrorSection(s *side, p *sections) error {
	m := &s.mirror
	ne, err := r.count(1)
	if err != nil {
		return err
	}
	evict := make([]uint32, 0, ne)
	for range ne {
		v, err := r.uvarint()
		if err != nil {
			return err
		}
		if v >= uint64(len(m.held)) || m.held[v].n == 0 || len(evict) > 0 && uint32(v) <= evict[len(evict)-1] {
			return fmt.Errorf("mirror section: eviction of slot %d", v)
		}
		evict = append(evict, uint32(v))
	}
	nr, err := r.count(1)
	if err != nil {
		return err
	}
	if nr == 0 {
		return fmt.Errorf("mirror section of no rows")
	}
	type row struct {
		slot  uint32
		reset bool
		added int
		k     int // a reset row's Rice parameter, −1 for its bits raw
	}
	rows := make([]row, nr)
	for i := range rows {
		head, err := r.uvarint()
		if err != nil {
			return err
		}
		slot, op, a, k := head>>2, head&3, head&3, -1
		if op >= opAppend {
			if a, err = r.uvarint(); err != nil {
				return err
			}
			if a > 2*uint64(s.mirrorBits) {
				return fmt.Errorf("mirror section: row %d adds %d bits and more", i, a)
			}
			switch gaps := a&1 != 0; {
			case op == opAppend:
				a += opAppend
			case gaps:
				b, err := r.byte()
				if err != nil {
					return err
				}
				if k = int(b); k > maxGapRice {
					return fmt.Errorf("mirror section: row %d of Rice parameter %d", i, k)
				}
				fallthrough
			default:
				a = a>>1 + 1
			}
		}
		if slot >= uint64(s.mirrorSlots) || a > uint64(s.mirrorBits) {
			return fmt.Errorf("mirror section: row %d adds %d bits to slot %d", i, a, slot)
		}
		if slices.Contains(evict, uint32(slot)) {
			return fmt.Errorf("mirror section: slot %d evicted and written", slot)
		}
		rows[i] = row{uint32(slot), op == opReset, int(a), k}
	}
	stream := bitReader{buf: r.buf}
	for _, slot := range evict {
		m.total -= m.held[slot].n
		m.held[slot] = goodBits{}
	}
	p.views = make([]goodBits, nr)
	var gaps []int
	for i, row := range rows {
		if int(row.slot) >= len(m.held) {
			m.held = append(m.held, make([]goodBits, int(row.slot)+1-len(m.held))...)
		}
		g := &m.held[row.slot]
		if row.reset {
			m.total -= g.n
			*g = goodBits{}
		} else if g.n == 0 {
			return fmt.Errorf("mirror section: bits for slot %d, which holds none", row.slot)
		}
		if m.total += row.added; m.total > s.mirrorBits {
			return fmt.Errorf("mirror section: slots of %d bits, past the %d a connection mirrors", m.total, s.mirrorBits)
		}
		gaps = gaps[:0]
		var err error
		if row.k >= 0 {
			gaps, err = readGaps(g, gaps, row.added, row.k, &stream)
		} else {
			run := 0
			for j := 0; j < row.added && err == nil; j++ {
				var good bool
				good, err = stream.bit()
				g.push(good)
				if run++; !good && row.reset {
					gaps, run = append(gaps, run-1), 0
				}
			}
			gaps = append(gaps, run)
		}
		if err != nil {
			return fmt.Errorf("mirror section: row %d: %v", i, err)
		}
		if row.reset {
			want, bits := gapRice(gaps)
			if bits >= row.added {
				want = -1
			}
			if row.k != want {
				return fmt.Errorf("mirror section: row %d of %d records written with Rice parameter %d where the encoder writes %d (-1: raw)", i, row.added, row.k, want)
			}
		}
		p.views[i] = *g
	}
	used, err := stream.end()
	if err != nil {
		return fmt.Errorf("mirror section: %v", err)
	}
	r.buf = r.buf[used:]
	return nil
}

// readGaps pushes onto g the a bits of a row written as gaps with Rice
// parameter k, which it reads from bits: a gap's good bits and, but for the
// last gap, the bad one after them. It appends the gaps to gaps, and
// refuses gaps that run past a.
func readGaps(g *goodBits, gaps []int, a, k int, bits *bitReader) ([]int, error) {
	for at := 0; ; {
		x, err := bits.rice(k, a-at)
		if err != nil {
			return gaps, err
		}
		gaps = append(gaps, x)
		for range x {
			g.push(true)
		}
		if at += x; at == a {
			return gaps, nil
		}
		g.push(false)
		at++
	}
}
