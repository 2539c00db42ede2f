package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"honestplayer/internal/behavior"
	"honestplayer/internal/stats"
)

// The verdict table is behavior.Verdict.Suffixes in its binary form: columns,
// because a Scheme 2 verdict is hundreds of rows that mostly repeat or follow
// from each other (ADR 0006). Every assessment on a binary frame carries one.
// Integers are shortest-form varints, floats big-endian IEEE-754 bits:
//
//	n             rows; a table of none ends here
//	shape         flag byte: the columns that could not be derived (below)
//	transactions  n × zig-zag varint, each row's difference from the one
//	              before (the first from 0)
//	windows       uvarint m when every row has Transactions == Windows·m;
//	              with tableWindows its own delta column instead
//	good          n × zig-zag delta of the integer g for which
//	              float64(g)/float64(Transactions) is PHat bit for bit;
//	              with tablePHat n × 8 B of PHat instead
//	distance      n × 8 B
//	threshold     with tableKeyed, one value for each row that has no grid
//	              key (below), in row order, and nothing for the rest;
//	              without it (value, uvarint run length) pairs covering n
//	              rows, neighbouring runs differing in their bits. A value
//	              is a uvarint ref: 0 is followed by 8 B of bits the frame
//	              has not written yet, i names the frame's i-th such
//	              literal (frameDict)
//	pass          nothing when every row has Pass == (Distance <= Threshold);
//	              with tablePass ⌈n/8⌉ bytes, bit i%8 of byte i/8 for row i,
//	              padding bits zero
//
// A chain — Scheme 2's consecutive suffixes, each row one window longer than
// the next and holding one window's good count more, every Distance the one
// a tester computes from those windows — writes its transactions, windows,
// good and distance columns as the window counts they were computed from
// (tableChain, ADR 0006):
//
//	windows       uvarint: the first row's Windows, each row one fewer
//	m             uvarint window size, 1..255
//	k             byte: the Rice parameter, 0..7 (riceParam)
//	counts        the shortest row's window counts in ascending order, then,
//	              from the second-shortest row up, the count of the window
//	              each row adds: Windows of the first row in all, each c
//	              as the Rice code of m − c — (m−c)>>k one bits, a zero
//	              bit, the k low bits — packed low bit first, a zero pad
//
// The decoder rebuilds every Distance from the counts as a tester computes
// it: stats.L1CountsDistance of the row's window histogram from
// stats.BinomialPMFInto's B(m, p̂), arithmetic whose bits are the same on
// every platform. The shortest row's counts are chainBase's pick, which the
// decoder makes again from the rows it decoded, and k riceParam's, which it
// works out again from the counts.
//
// A row's grid key is the calibration grid point its threshold query lands
// on, stats.GridPointOf(Windows, PHat) at the default p̂ resolution: a
// calibrator answers every query of one plane at one grid point with the
// same ε, so a connection's tables repeat a few hundred thresholds, each
// under one key. A key is bound to the threshold of the first row that has
// it, once for the connection (bindings), and a table whose Windows and PHat
// derive and whose every row carries its key's binding is keyed (tableKeyed):
// both ends compute every row's key
// from the columns before the thresholds, so the table writes no threshold
// for a row on a key; the keys the frame binds ride in the binding section
// at the head of its payload. A row past stats.DefaultMaxCalibrationWindows, whose ε is
// scaled to its own window count, has no key and always writes its
// threshold, so that the bindings are one table the size of the grid,
// whatever the rows. A table that is not keyed — another window size or p̂
// resolution than the bindings', familywise tables of different lengths,
// hostile rows — writes its threshold runs.
//
// The encoding is lossless for any rows — NaN payloads, −0, ±Inf, negative
// or unordered counts — because the encoder derives a column only after
// checking that every row reproduces, and the decoder accepts exactly the
// encoder's output: it recomputes the shape from the rows it decoded and
// refuses a table that wrote a column the long way round.
const (
	tableWindows byte = 1 << 0
	tablePHat    byte = 1 << 1
	tablePass    byte = 1 << 2
	tableChain   byte = 1 << 3
	tableKeyed   byte = 1 << 4
	tableMirror  byte = 1 << 5
)

// maxFrameRows bounds the verdict rows of one frame, all its tables
// together, at the number MaxFrame holds at the raw columns' 10 B a row. A
// row decodes to 48 B, and a chain writes one in as little as one bit:
// without the bound a hostile frame of chains would allocate 384 times its
// size, with it no frame allocates more for its rows than one of raw tables
// could. An encoder refuses a payload past it as too large (Codec.Encode),
// as it refuses one past MaxFrame.
const maxFrameRows = MaxFrame / 10

// verdictRows is the number of verdict rows a payload carries.
func verdictRows(payload any) int {
	var items []AssessBatchItem
	switch p := payload.(type) {
	case AssessResponse:
		return len(p.Assessment.Verdict.Suffixes)
	case *AssessResponse:
		return len(p.Assessment.Verdict.Suffixes)
	case AssessBatchResponse:
		items = p.Items
	case *AssessBatchResponse:
		items = p.Items
	case FwdAssessBatchResponse:
		items = p.Items
	case *FwdAssessBatchResponse:
		items = p.Items
	}
	n := 0
	for i := range items {
		if items[i].Error == nil {
			n += len(items[i].Assessment.Verdict.Suffixes)
		}
	}
	return n
}

// goodCount returns the g for which float64(g)/float64(s.Transactions) has
// PHat's bits. Transactions is held to 31 bits so that g is the only such
// integer and the division is exact IEEE arithmetic on every platform.
func goodCount(s *behavior.SuffixResult) (int, bool) {
	t := s.Transactions
	if t <= 0 || t > math.MaxInt32 {
		return 0, false
	}
	x := s.PHat * float64(t)
	if !(x >= 0 && x <= float64(t)) { // NaN lands here too
		return 0, false
	}
	g := int(x + 0.5)
	return g, math.Float64bits(float64(g)/float64(t)) == math.Float64bits(s.PHat)
}

// tableShape reports which columns of rows (at least one) have to ride
// explicitly, the m the Windows column derives from when it does not, and
// for a chain the chain whose base is the shortest row's window histogram,
// chainBase's pick — or, when d.src's good bits give the chain, a mirrored
// chain, which carries no counts (mirror.go). A chain is at least two rows whose Windows and PHat
// derive, each one window longer than the next with between 0 and m good
// transactions more, at most behavior.MaxWindowSize wide, and whose every
// Distance rebuilds from a base among the first maxBases. A decoder passes
// the base it rebuilt rows from as rebuilt, which the search then takes
// without a second walk. The chain is the frame's scratch, d.chain.
func tableShape(rows []behavior.SuffixResult, rebuilt []uint32, d *frameDict) (shape byte, m int, ch *chain) {
	if w := rows[0].Windows; w > 0 && rows[0].Transactions%w == 0 {
		m = rows[0].Transactions / w
	}
	if m <= 0 || m > math.MaxInt32 {
		shape |= tableWindows
	}
	steps, prev := len(rows) >= 2 && m <= behavior.MaxWindowSize, 0
	for i := range rows {
		s := &rows[i]
		if shape&tableWindows == 0 && (s.Transactions%m != 0 || s.Transactions/m != s.Windows) {
			shape |= tableWindows
		}
		g, ok := goodCount(s)
		if !ok {
			shape |= tablePHat
		}
		if i > 0 && (s.Windows != rows[i-1].Windows-1 || g > prev || prev-g > m) {
			steps = false
		}
		prev = g
		if s.Pass != (s.Distance <= s.Threshold) {
			shape |= tablePass
		}
	}
	if shape&tableWindows != 0 {
		return shape, 0, nil
	}
	if steps && shape&tablePHat == 0 {
		ch := d.chain(m)
		ch.rebuilt = rebuilt
		if d.src != nil {
			if mirrored(ch, rows, d.src) {
				return shape | tableChain | tableMirror, m, ch
			}
			clear(ch.candid)
		}
		if chainBase(ch, rows, prev) {
			return shape | tableChain, m, ch
		}
	}
	return shape, m, nil
}

// mirrored reports whether rows, a chain of window size m, are the chain
// whose window counts src's bits give, its windows ending at src's newest
// record: every row's good count the bits' and every Distance the one its
// windows' histogram gives. It leaves ch.candid holding the shortest row's
// histogram, which ch.rebuilt — a decoder's, built from src — spares the
// walk over the rows.
func mirrored(ch *chain, rows []behavior.SuffixResult, src goodSource) bool {
	n, m, k := src.Len(), len(ch.pmf)-1, len(rows)
	w0, short := rows[0].Windows, rows[k-1].Windows
	if w0 > n/m {
		return false
	}
	g := 0
	for j := 1; j <= w0; j++ {
		c := src.GoodInRange(n-j*m, n-(j-1)*m)
		g += c
		if j <= short {
			ch.candid[c]++
		}
		if j >= short {
			s := &rows[w0-j]
			if int(s.PHat*float64(s.Transactions)+0.5) != g { // goodCount, which tableShape checked
				return false
			}
		}
	}
	return ch.rebuilds(rows)
}

// mirrorColumns rebuilds a mirrored chain's rows but their thresholds from
// src, whose bits hold the chain's windows (chainHead), the windows ending
// at its newest record, and leaves ch.base holding the shortest row's
// histogram.
func mirrorColumns(rows []behavior.SuffixResult, windows int, ch *chain, src goodSource) {
	n, m, k := src.Len(), len(ch.pmf)-1, len(rows)
	short, g := windows-k+1, 0
	for j := 1; j <= windows; j++ {
		c := src.GoodInRange(n-j*m, n-(j-1)*m)
		ch.hist[c]++
		g += c
		if j == short {
			copy(ch.base, ch.hist)
		}
		if j >= short {
			s := &rows[windows-j]
			s.Windows, s.Transactions = j, j*m
			s.PHat = float64(g) / float64(s.Transactions)
			s.Distance = ch.distance(j, s.PHat)
		}
	}
}

// maxBases caps the base search: a table whose shortest row has more
// candidate histograms than this is written as raw columns.
const maxBases = 4096

// chain is what a chain is walked with at either end, held as a tester holds
// it: B(m, p̂) for the last p̂ filled, the histogram of the row at hand, the
// shortest row's (the base) and eachBase's candidate for it.
type chain struct {
	pmf                []float64
	filled             uint64 // the bits of the p̂ pmf holds
	hist, base, candid []uint32
	rebuilt            []uint32 // a base the rows were rebuilt from: no walk needed
}

// newChain returns a chain for window size m.
func newChain(m int) *chain {
	h := make([]uint32, 3*(m+1))
	return &chain{pmf: make([]float64, m+1), filled: math.MaxUint64,
		hist: h[:m+1], base: h[m+1 : 2*(m+1)], candid: h[2*(m+1):]}
}

// distance is the Distance a tester computes for c.hist, w windows, at p:
// the same two calls, so the same bits on every platform. p is a row's
// g/Transactions and w at least one, which neither call refuses.
func (c *chain) distance(w int, p float64) float64 {
	if math.Float64bits(p) != c.filled {
		_ = stats.BinomialPMFInto(c.pmf, len(c.pmf)-1, p)
		c.filled = math.Float64bits(p)
	}
	d, _ := stats.L1CountsDistance(c.hist, int64(w), c.pmf)
	return d
}

// rebuilds reports whether every row's Distance rebuilds, bit for bit, with
// c.candid as the shortest row's histogram and each longer row adding the
// window of the good transactions it holds more.
func (c *chain) rebuilds(rows []behavior.SuffixResult) bool {
	if c.rebuilt != nil && slices.Equal(c.candid, c.rebuilt) {
		return true
	}
	copy(c.hist, c.candid)
	for i, prev := len(rows)-1, 0; i >= 0; i-- {
		s := &rows[i]
		g := int(s.PHat*float64(s.Transactions) + 0.5) // goodCount, which tableShape checked
		if i < len(rows)-1 {
			c.hist[g-prev]++
		}
		prev = g
		if math.Float64bits(c.distance(s.Windows, s.PHat)) != math.Float64bits(s.Distance) {
			return false
		}
	}
	return true
}

// chainBase sets c.base to the first histogram, in eachBase's order, of the
// shortest row's windows over [0, m] with its g good transactions among
// them, from which every row's Distance rebuilds, and c.hist to the first
// row's histogram unless it took c.rebuilt. It reports false when none of
// the first maxBases does.
func chainBase(c *chain, rows []behavior.SuffixResult, g int) bool {
	seen, found := 0, false
	eachBase(c.candid, 0, rows[len(rows)-1].Windows, g, func() bool {
		if found = c.rebuilds(rows); found {
			copy(c.base, c.candid)
		}
		seen++
		return !found && seen < maxBases
	})
	return found
}

// eachBase calls visit with hist holding, in turn, every way to spread w
// windows over the values v..m with g good transactions among them: the
// fewest windows at v first, then recursively. It stops, reporting false,
// when visit does.
func eachBase(hist []uint32, v, w, g int, visit func() bool) bool {
	m := len(hist) - 1
	for v < m && w*(v+1) <= g && w*m-g < m-v {
		v++ // no window can take the value v
	}
	if v == m {
		if w*m != g {
			return true
		}
		hist[m] = uint32(w)
		ok := visit()
		hist[m] = 0
		return ok
	}
	// c windows at v leave w−c windows in [v+1, m] to hold g − c·v, which
	// they can exactly when (w−c)(v+1) <= g − c·v <= (w−c)·m.
	lo, hi := max(0, w*(v+1)-g), min(w, (w*m-g)/(m-v))
	for c := lo; c <= hi; c++ {
		hist[v] = uint32(c)
		if !eachBase(hist, v+1, w-c, g-c*v, visit) {
			hist[v] = 0
			return false
		}
	}
	hist[v] = 0
	return true
}

// bindings binds calibration grid slots (rowSlot) to threshold bits, each
// slot once (conn.go). A connection's table lives as long as the connection,
// a frame's own as long as the frame. It is the calibrator's gridPlane
// idiom: one row of gridP atomic slots per window bucket, allocated on the
// first binding in it, each slot holding the bitwise complement of a
// threshold's bits, zero for a slot not bound yet. A connection whose
// verdicts span few window counts holds few rows. One goroutine binds and
// any number read; a slot reads as unbound or as the bits it is bound to for
// good, so a reader needs no lock and sees no order but that. A row points
// into heads, the binder's, made at the first binding: a row is one
// allocation.
type bindings struct {
	rows  []atomic.Pointer[[]atomic.Uint64] // by window bucket, slot / gridP
	heads [][]atomic.Uint64
}

// bindingRows is a table's rows, none allocated.
func bindingRows() []atomic.Pointer[[]atomic.Uint64] {
	return make([]atomic.Pointer[[]atomic.Uint64], gridSlots/gridP)
}

// unbindable is the one threshold a slot cannot hold, the NaN whose
// complement is an unbound slot's zero. A row that has it is not keyed.
const unbindable = ^uint64(0)

func (b *bindings) lookup(slot uint32) (uint64, bool) {
	if row := b.rows[slot/uint32(gridP)].Load(); row != nil {
		if v := (*row)[slot%uint32(gridP)].Load(); v != 0 {
			return ^v, true
		}
	}
	return 0, false
}

func (b *bindings) bind(slot uint32, bits uint64) {
	i := slot / uint32(gridP)
	row := b.rows[i].Load()
	if row == nil {
		if b.heads == nil {
			b.heads = make([][]atomic.Uint64, len(b.rows))
		}
		b.heads[i] = make([]atomic.Uint64, gridP)
		row = &b.heads[i]
		b.rows[i].Store(row)
	}
	(*row)[slot%uint32(gridP)].Store(^bits)
}

func (b *bindings) unbind(slot uint32) {
	(*b.rows[slot/uint32(gridP)].Load())[slot%uint32(gridP)].Store(0)
}

// frameDict is a frame's dictionaries (ADR 0008): the bits of every
// threshold literal the frame has written, in order, so that a later value
// names one by its place, the grid-slot bindings the frame makes, and the
// names its latest assessment wrote, so that the next says "the same"
// instead. Each table's ε comes from one calibrator grid and every
// assessment from one assessor, so a batch repeats a few dozen thresholds
// and one pair of names in every item. It lives exactly as long as the
// frame: an encoder takes one per payload (getFrameDict), a decoder keeps
// one in its breader. What outlives the frame is the connection's state,
// dir, the direction the frame crosses: an encoder plans the frame's
// sections against it, and a decoder reads what the frame's sections held
// (read) and the tables as the frames up to its own left them. Its scratch
// — the chain and the rows keyTable picks — is reused from table to table.
type frameDict struct {
	ref  map[uint64]uint64 // a literal's bits → its ref, from 1
	bits []uint64          // ref − 1 → the literal's bits

	own   bindings // the slots the frame has bound so far, which dir had not
	bound []uint32 // own's slots, in the order bound

	// The binding section's distinct bits, in the order first bound, and
	// each one's place among them from 1, which a ref names.
	secVals []uint64
	secRef  map[uint64]uint64

	named             bool // an assessment of the frame has written names
	tester, trustFunc string

	dir *side  // the direction the frame crosses
	seq uint64 // a decoder's: the frame's place among those dir committed

	// An encoder's sections so far: the names the frame binds; the mirror
	// section's rows and evictions, the slots they take, the bits the slots
	// hold with them (−1 before the first source), the good bits the table
	// at hand may be rebuilt from, and the row, the evictions and the bits
	// the item at hand plans.
	nameBinds []nameBinding
	mirRows   []mirrorRow
	mirEvict  []uint32
	mirTaken  map[uint32]bool
	mirTotal  int
	src       goodSource
	row       mirrorRow
	rowEvict  []uint32
	rowNeed   int

	// A decoder's: what the frame's sections held — noSections for a frame
	// that has none, and for an encoder — and which of their entries the
	// frame has read: each name binding, how many grid bindings and how many
	// mirror rows.
	read     *sections
	nameRead []bool
	nRead    int
	nViews   int

	rice    []int    // an encoder's mirror rows' Rice parameters, −1 for raw bits
	gaps    []int    // the gaps of a reset mirror row
	counts  [2]int   // where an encoder wrote the assessment's Records and Good
	fresh   []int    // keyTable's pick: the rows of a keyed table that write a threshold
	secBuf  []byte   // an encoder's sections, before they head the payload
	ch      *chain   // the chain scratch, for window size len(ch.pmf) − 1
	rebuilt []uint32 // a decoded chain's base, as written
}

var frameDictPool = sync.Pool{New: func() any {
	return &frameDict{ref: make(map[uint64]uint64), secRef: make(map[uint64]uint64), own: bindings{rows: bindingRows()},
		mirTaken: make(map[uint32]bool), mirTotal: -1, read: &noSections}
}}

// noSections is what a frame without sections holds in them. Nothing writes
// to it.
var noSections sections

// getFrameDict returns empty dictionaries for one frame crossing dir; put
// gives them back.
func getFrameDict(dir *side) *frameDict {
	d := frameDictPool.Get().(*frameDict)
	d.dir = dir
	return d
}

func (d *frameDict) put() {
	clear(d.ref)
	d.bits = d.bits[:0]
	for _, slot := range d.bound {
		d.own.unbind(slot)
	}
	d.bound = d.bound[:0]
	d.secVals = d.secVals[:0]
	clear(d.secRef)
	d.named, d.tester, d.trustFunc = false, "", ""
	d.dir, d.seq = nil, 0
	clear(d.nameBinds) // their names
	d.nameBinds = d.nameBinds[:0]
	clear(d.mirRows) // their histories
	clear(d.mirTaken)
	d.mirRows, d.mirEvict, d.rowEvict = d.mirRows[:0], d.mirEvict[:0], d.rowEvict[:0]
	d.mirTotal, d.src, d.row = -1, nil, mirrorRow{}
	d.read, d.nameRead, d.nRead, d.nViews = &noSections, d.nameRead[:0], 0, 0
	frameDictPool.Put(d)
}

// chain returns the frame's chain scratch for window size m, its
// histograms zeroed.
func (d *frameDict) chain(m int) *chain {
	if d.ch == nil || len(d.ch.pmf) != m+1 {
		d.ch = newChain(m)
	} else {
		clear(d.ch.hist)
		clear(d.ch.base)
		clear(d.ch.candid)
	}
	return d.ch
}

// The calibration grid at the default p̂ resolution, as rowSlot numbers its
// points: gridP p̂ buckets to a window bucket, gridSlots points in all.
var (
	gridP     = stats.GridPointOf(1, 1, stats.DefaultPResolution).P + 1
	gridSlots = gridP * (stats.GridPointOf(stats.DefaultMaxCalibrationWindows, 1, stats.DefaultPResolution).Window + 1)
)

// noSlot is the slot of a row that has no grid key.
const noSlot = ^uint32(0)

// rowSlot is the grid key of a row whose Windows and PHat derive, under its
// table's window size: the row's stats.GridPoint at the default p̂
// resolution, Window·gridP + P, or noSlot for a row past the calibrated
// range.
// Such a row has at least one window and a PHat in [0, 1]; a row a decoder
// has not checked yet may not, and has no key either.
func rowSlot(s *behavior.SuffixResult) uint32 {
	if s.Windows < 1 || !(s.PHat >= 0 && s.PHat <= 1) {
		return noSlot
	}
	g := stats.GridPointOf(s.Windows, s.PHat, stats.DefaultPResolution)
	if g.Scaled != 0 {
		return noSlot
	}
	return uint32(g.Window*gridP + g.P)
}

// lookup returns the bits slot is bound to as the encoder saw it when it
// reached the table at hand: by the frame so far, or by the connection
// before the frame. A slot of a decoder's binding section that no keyed row
// has read yet was not bound then, whatever the connection holds now.
func (d *frameDict) lookup(slot uint32) (uint64, bool) {
	if bits, ok := d.own.lookup(slot); ok {
		return bits, true
	}
	if _, ok := slices.BinarySearch(d.read.grid, slot); ok {
		return 0, false
	}
	return d.dir.grid.lookup(slot)
}

// readBound is lookup for a decoder's keyed row: a slot of the binding
// section binds in the frame when the first keyed row reads it, as the
// encoder bound it there.
func (d *frameDict) readBound(slot uint32) (uint64, bool) {
	if i, ok := slices.BinarySearch(d.read.grid, slot); ok {
		if bits, ok := d.own.lookup(slot); ok {
			return bits, true
		}
		d.own.bind(slot, d.read.bits[i])
		d.bound = append(d.bound, slot)
		d.nRead++
		return d.read.bits[i], true
	}
	return d.lookup(slot)
}

// keyTable reports whether the rows of a table of window size m, whose
// Windows and PHat derive, are keyed: every row on a grid key carries the
// threshold the key is bound to — by the connection or the frame — the
// first row on a key nothing has bound yet binding it in the frame. d.fresh
// is then the rows that write a threshold, those with no key. A table that
// is not keyed binds nothing.
func (d *frameDict) keyTable(rows []behavior.SuffixResult) bool {
	d.fresh = d.fresh[:0]
	mark, prev := len(d.bound), noSlot
	for i := range rows {
		slot, bits := rowSlot(&rows[i]), math.Float64bits(rows[i].Threshold)
		keyed := true
		switch {
		case slot == noSlot:
			d.fresh = append(d.fresh, i)
		case slot == prev: // bound to the row before, which had it too
			keyed = bits == math.Float64bits(rows[i-1].Threshold)
		default:
			if b, ok := d.lookup(slot); ok {
				keyed = b == bits
			} else if keyed = bits != unbindable; keyed {
				d.own.bind(slot, bits)
				d.bound = append(d.bound, slot)
			}
		}
		if !keyed {
			for _, slot := range d.bound[mark:] {
				d.own.unbind(slot)
			}
			d.bound = d.bound[:mark]
			return false
		}
		prev = slot
	}
	return true
}

// The binding section (conn.go): the slots the frame binds that the
// connection had not bound when the frame was planned, ascending, each with
// its threshold's bits:
//
//	n      uvarint: the bindings, 1 to gridSlots
//	n ×    head: 1 byte, step·10 + form, step at most farStep;
//	       [distance: uvarint, with step farStep;]
//	       value: with form 0–8, the 8 − form low bytes of bits XOR the
//	       bits before, whose form high bytes are zero, the first written
//	       non-zero; with form refForm, a uvarint i ≥ 1 naming the i-th
//	       distinct bits the section has bound, not the bits before
//
// A binding's step is its slot's distance d from the slot before (−1 before
// the first): d of 1 to 4, the p̂ buckets just above in its window bucket,
// is step d − 1; d of gridP − 10 to gridP + 9, about the same p̂ in the
// next window bucket, is step d − gridP + 14; any other d is farStep and
// written as a uvarint. The bits before the first are 0. A frame's slots
// climb its rows' windows one bucket at a time at nearly the same p̂ and
// its thresholds share their sign, exponent and top mantissa bits, so a
// binding mostly costs its 7 B of XOR and a byte of head, where revision 12
// wrote 1 + 8 B of literal in the row. A frame binds only the slots no frame
// before it on its connection did: every slot its keyed rows land on when it
// is a connection of its own (V2Codec).
const (
	farStep = 24 // 0–3 for 1 to 4 slots on, 4–23 for a window bucket on
	refForm = 9
	forms   = 10
)

// slotStep is the step of a binding whose slot is dist slots past the one
// before.
func slotStep(dist int) byte {
	switch {
	case dist <= 4:
		return byte(dist - 1)
	case dist >= gridP-10 && dist < gridP+10:
		return byte(dist - gridP + 14)
	}
	return farStep
}

// appendBindings appends the binding section of the frame d encoded, when it
// binds a grid slot; p, the frame's plan, records the slots and their bits.
func (d *frameDict) appendBindings(sec []byte, p *sections) []byte {
	if len(d.bound) == 0 {
		return sec
	}
	slices.Sort(d.bound)
	sec = binary.AppendUvarint(sec, uint64(len(d.bound)))
	p.grid, p.bits = make([]uint32, 0, len(d.bound)), make([]uint64, 0, len(d.bound))
	slot, prev := -1, uint64(0)
	for _, next := range d.bound {
		b, _ := d.own.lookup(next)
		dist, x := int(next)-slot, b^prev
		step, form := slotStep(dist), byte(bits.LeadingZeros64(x)/8)
		ref, seen := d.secRef[b]
		if seen && x != 0 {
			form = refForm
		} else if !seen {
			d.secRef[b] = uint64(len(d.secRef) + 1)
		}
		sec = append(sec, step*forms+form)
		if step == farStep {
			sec = binary.AppendUvarint(sec, uint64(dist))
		}
		if form == refForm {
			sec = binary.AppendUvarint(sec, ref)
		} else {
			sec = binary.BigEndian.AppendUint64(sec, x)
			sec = append(sec[:len(sec)-8], sec[len(sec)-8+int(form):]...)
		}
		slot, prev = int(next), b
		p.grid, p.bits = append(p.grid, next), append(p.bits, b)
	}
	return sec
}

// bindings reads a binding section into p. It refuses a section longer than
// the grid, a slot past it, any form of a binding but the one an encoder
// writes, the one threshold a slot cannot hold, and a slot grid, the
// connection's bindings, has bound to other bits.
func (r *breader) bindings(grid *bindings, p *sections) error {
	d := r.dict
	n, err := r.count(1)
	if err != nil {
		return err
	}
	if n == 0 || n > gridSlots {
		return fmt.Errorf("binding section of %d bindings for %d grid slots", n, gridSlots)
	}
	p.grid, p.bits = make([]uint32, 0, n), make([]uint64, 0, n)
	slot, prev := -1, uint64(0)
	for range n {
		head, err := r.byte()
		if err != nil {
			return err
		}
		step, form := head/forms, head%forms
		if step > farStep {
			return fmt.Errorf("binding section: head %d", head)
		}
		if dist, err := r.slotDistance(step); err != nil {
			return err
		} else if slot += dist; slot >= gridSlots {
			return fmt.Errorf("binding section: slot %d of %d", slot, gridSlots)
		}
		bits, err := r.bindingBits(form, prev)
		if err != nil {
			return err
		}
		if bits == unbindable {
			return fmt.Errorf("binding section: slot %d bound to %#x", slot, bits)
		}
		if b, ok := grid.lookup(uint32(slot)); ok && b != bits {
			return fmt.Errorf("binding section rebinds slot %d from %#x to %#x", slot, b, bits)
		}
		if _, seen := d.secRef[bits]; !seen {
			d.secVals = append(d.secVals, bits)
			d.secRef[bits] = uint64(len(d.secVals))
		}
		p.grid, p.bits = append(p.grid, uint32(slot)), append(p.bits, bits)
		prev = bits
	}
	return nil
}

// slotDistance reads the distance of a binding's slot from the one before,
// which its step gives or, for farStep, a uvarint no other step covers.
func (r *breader) slotDistance(step byte) (int, error) {
	if step < 4 {
		return int(step) + 1, nil
	}
	if step < farStep {
		return int(step) + gridP - 14, nil
	}
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v == 0 || v > uint64(gridSlots) || slotStep(int(v)) != farStep {
		return 0, fmt.Errorf("binding section: distance %d written whole", v)
	}
	return int(v), nil
}

// bindingBits reads a binding's value of the given form, the bits before
// being prev.
func (r *breader) bindingBits(form byte, prev uint64) (uint64, error) {
	d := r.dict
	if form == refForm {
		ref, err := r.uvarint()
		if err != nil {
			return 0, err
		}
		if ref == 0 || ref > uint64(len(d.secVals)) || d.secVals[ref-1] == prev {
			return 0, fmt.Errorf("binding section: ref %d of %d", ref, len(d.secVals))
		}
		return d.secVals[ref-1], nil
	}
	size := 8 - int(form)
	if len(r.buf) < size || size > 0 && r.buf[0] == 0 {
		return 0, fmt.Errorf("binding section: %d bytes of XOR", size)
	}
	x := uint64(0)
	for _, b := range r.buf[:size] {
		x = x<<8 | uint64(b)
	}
	r.buf = r.buf[size:]
	if _, seen := d.secRef[prev^x]; seen && x != 0 {
		return 0, fmt.Errorf("binding section: bits %#x written again", prev^x)
	}
	return prev ^ x, nil
}

// appendThreshold writes a threshold value: the ref of a literal the frame
// has written, or 0 and the bits, which join the frame's literals.
func (d *frameDict) appendThreshold(buf []byte, bits uint64) []byte {
	if ref, ok := d.ref[bits]; ok {
		return binary.AppendUvarint(buf, ref)
	}
	d.add(bits)
	return binary.BigEndian.AppendUint64(append(buf, 0), bits)
}

func (d *frameDict) add(bits uint64) {
	d.bits = append(d.bits, bits)
	d.ref[bits] = uint64(len(d.bits))
}

// sameNames reports whether tester and trustFunc are the names the frame's
// latest assessment wrote.
func (d *frameDict) sameNames(tester, trustFunc string) bool {
	return d.named && tester == d.tester && trustFunc == d.trustFunc
}

func (d *frameDict) name(tester, trustFunc string) {
	d.named, d.tester, d.trustFunc = true, tester, trustFunc
}

// appendVerdictTable writes rows, its threshold literals and the grid keys
// it binds joining d, the dictionaries of the frame it is part of.
func appendVerdictTable(buf []byte, rows []behavior.SuffixResult, d *frameDict) []byte {
	n := len(rows)
	buf = binary.AppendUvarint(buf, uint64(n))
	if n == 0 {
		return buf
	}
	shape, m, ch := tableShape(rows, nil, d)
	if shape&(tableWindows|tablePHat) == 0 && d.keyTable(rows) {
		shape |= tableKeyed
	}
	buf = append(buf, shape)
	switch {
	case shape&tableMirror != 0: // the counts are the mirror's
		buf = binary.AppendUvarint(buf, uint64(d.src.Len()/m-rows[0].Windows))
		buf = binary.AppendUvarint(buf, uint64(m))
		d.mirrorRow()
	case ch != nil:
		buf = appendChain(buf, rows, ch)
	default:
		buf = appendRawColumns(buf, rows, shape, m)
	}
	if shape&tableKeyed != 0 {
		for _, i := range d.fresh {
			buf = d.appendThreshold(buf, math.Float64bits(rows[i].Threshold))
		}
	}
	for i := 0; i < n && shape&tableKeyed == 0; {
		bits, end := math.Float64bits(rows[i].Threshold), i+1
		for end < n && math.Float64bits(rows[end].Threshold) == bits {
			end++
		}
		buf = d.appendThreshold(buf, bits)
		buf = binary.AppendUvarint(buf, uint64(end-i))
		i = end
	}
	if shape&tablePass != 0 {
		bitmap := len(buf)
		buf = appendZeros(buf, (n+7)/8)
		for i := range rows {
			if rows[i].Pass {
				buf[bitmap+i/8] |= 1 << (i % 8)
			}
		}
	}
	return buf
}

// appendZeros extends buf by n zero bytes, in place when it has room, as
// append(buf, make([]byte, n)...) does only where the compiler rewrites it
// (not under the race detector).
func appendZeros(buf []byte, n int) []byte {
	at := len(buf)
	buf = slices.Grow(buf, n)[:at+n]
	clear(buf[at:])
	return buf
}

// appendRawColumns writes the transactions, windows, good and distance
// columns of a table that is not a chain.
func appendRawColumns(buf []byte, rows []behavior.SuffixResult, shape byte, m int) []byte {
	n := len(rows)
	for i, prev := 0, 0; i < n; i++ {
		buf = binary.AppendVarint(buf, int64(rows[i].Transactions-prev))
		prev = rows[i].Transactions
	}
	if shape&tableWindows == 0 {
		buf = binary.AppendUvarint(buf, uint64(m))
	} else {
		for i, prev := 0, 0; i < n; i++ {
			buf = binary.AppendVarint(buf, int64(rows[i].Windows-prev))
			prev = rows[i].Windows
		}
	}
	for i, prev := 0, 0; i < n; i++ {
		if shape&tablePHat != 0 {
			buf = appendFloat(buf, rows[i].PHat)
			continue
		}
		g, _ := goodCount(&rows[i])
		buf = binary.AppendVarint(buf, int64(g-prev))
		prev = g
	}
	for i := range rows {
		buf = appendFloat(buf, rows[i].Distance)
	}
	return buf
}

// maxRice is the largest Rice parameter: m − c < 2⁸, so k = 7 spends at
// most 9 bits on a count, which no larger k beats.
const maxRice = 7

// riceBits is the bits the Rice code with parameter k spends on the counts
// hist holds: for each count c, (m−c)>>k one bits, a zero bit and k more.
func riceBits(hist []uint32, k int) uint64 {
	m, n := len(hist)-1, uint64(0)
	for c, f := range hist {
		n += uint64(f) * uint64((m-c)>>k+1+k)
	}
	return n
}

// riceParam is the k whose Rice code spends the fewest bits on the counts
// hist holds, the smallest on a tie. The bits are convex in k — k + 1 saves
// ⌈(x>>k)/2⌉ on each x and costs one — so the first k that the next does not
// beat is the one.
func riceParam(hist []uint32) int {
	k, least := 0, riceBits(hist, 0)
	for ; k < maxRice; k++ {
		n := riceBits(hist, k+1)
		if n >= least {
			break
		}
		least = n
	}
	return k
}

// putRice sets the bits of the Rice code of x with parameter k in counts,
// zeroed, from bit pos on, low bit first — x>>k one bits, the zero that ends
// them, then x's k low bits — and returns the bit after it.
func putRice(counts []byte, pos, x, k int) int {
	for range x >> k {
		counts[pos/8] |= 1 << (pos % 8)
		pos++
	}
	pos++
	for i := range k {
		counts[pos/8] |= byte(x>>i&1) << (pos % 8)
		pos++
	}
	return pos
}

// bitReader reads a stream of bits low bit first, as putRice writes them.
type bitReader struct {
	buf []byte
	pos int
}

// bit reads one bit.
func (b *bitReader) bit() (bool, error) {
	if b.pos >= 8*len(b.buf) {
		return false, fmt.Errorf("bits run past the payload")
	}
	one := b.buf[b.pos/8]>>(b.pos%8)&1 != 0
	b.pos++
	return one, nil
}

// errRiceRange refuses a Rice code of a value past its range.
var errRiceRange = errors.New("a Rice code past its range")

// rice reads the Rice code with parameter k of an x no greater than most.
func (b *bitReader) rice(k, most int) (int, error) {
	x := 0
	for {
		if b.pos+k >= 8*len(b.buf) { // no room for a zero and k bits
			return 0, fmt.Errorf("bits run past the payload")
		}
		one := b.buf[b.pos/8]>>(b.pos%8)&1 != 0
		if b.pos++; !one {
			break
		}
		if x += 1 << k; x > most {
			return 0, errRiceRange
		}
	}
	for i := range k {
		x |= int(b.buf[b.pos/8]>>(b.pos%8)&1) << i
		b.pos++
	}
	if x > most {
		return 0, errRiceRange
	}
	return x, nil
}

// end returns the bytes the stream has read into, refusing a set padding
// bit after the last.
func (b *bitReader) end() (int, error) {
	used := (b.pos + 7) / 8
	if b.pos%8 != 0 && b.buf[used-1]>>(b.pos%8) != 0 {
		return 0, fmt.Errorf("bit padding")
	}
	return used, nil
}

// appendChain writes a chain's windows, m, k and counts, walking the rows
// from the shortest up as a receiver rebuilds them; ch is tableShape's, its
// base the shortest row's histogram.
func appendChain(buf []byte, rows []behavior.SuffixResult, ch *chain) []byte {
	n, m := len(rows), len(ch.base)-1
	buf = binary.AppendUvarint(buf, uint64(rows[0].Windows))
	buf = binary.AppendUvarint(buf, uint64(m))
	// The counts written are the first row's windows, whose histogram
	// chainBase left in ch.hist, and it picks k.
	k := riceParam(ch.hist)
	buf = append(buf, byte(k))
	at, pos := len(buf), 0
	buf = appendZeros(buf, int(riceBits(ch.hist, k)+7)/8)
	for v, c := range ch.base {
		for range c {
			pos = putRice(buf[at:], pos, m-v, k)
		}
	}
	for i, prev := n-1, 0; i >= 0; i-- {
		s := &rows[i]
		g := int(s.PHat*float64(s.Transactions) + 0.5) // goodCount, which tableShape checked
		if i < n-1 {
			pos = putRice(buf[at:], pos, m-(g-prev), k)
		}
		prev = g
	}
	return buf
}

// delta reads a delta column's next value: a zig-zag varint added to prev.
func (r *breader) delta(prev int) (int, error) {
	zz, err := r.uvarint()
	return prev + int(int64(zz>>1)^-int64(zz&1)), err
}

// verdictTable decodes what appendVerdictTable wrote, and nothing else: a
// table its encoder would have written differently is refused, so whatever
// is accepted re-encodes to the same bytes. No rows decode to a nil slice.
func (r *breader) verdictTable() ([]behavior.SuffixResult, error) {
	count, err := r.uvarint()
	if err != nil || count == 0 {
		return nil, err
	}
	shape, err := r.byte()
	if err != nil {
		return nil, err
	}
	// A chain writes a row in as little as one bit of window count, a
	// mirrored one in none: its rows are at most the windows of its bits.
	if shape&tableMirror == 0 && count > 8*uint64(len(r.buf)) {
		return nil, fmt.Errorf("verdict table: %d rows in %d bytes", count, len(r.buf))
	}
	if count > uint64(maxFrameRows-r.rows) {
		return nil, fmt.Errorf("verdict table: %d rows where the frame has room for %d", count, maxFrameRows-r.rows)
	}
	n := int(count)
	r.rows += n
	if shape&tableKeyed != 0 && shape&(tableWindows|tablePHat) != 0 {
		return nil, fmt.Errorf("verdict table: shape %#x keys rows whose columns ride", shape)
	}
	d := r.dict
	var src goodSource
	if shape&tableMirror != 0 {
		if shape&tableChain == 0 || d.nViews == len(d.read.views) {
			return nil, fmt.Errorf("verdict table: shape %#x mirrors a chain no mirror row backs", shape)
		}
		src = &d.read.views[d.nViews]
		d.nViews++
	}
	windows, m := 0, 0
	if shape&tableChain != 0 {
		if windows, m, err = r.chainHead(n, src); err != nil {
			return nil, err
		}
	} else if n > len(r.buf)/(1+1+8) {
		// A row is at least a Transactions delta, a good-count delta and its
		// Distance.
		return nil, fmt.Errorf("verdict table: %d rows in %d bytes", n, len(r.buf))
	}
	rows := make([]behavior.SuffixResult, n)
	var read *chain // a chain's, its base as written or mirrored
	switch {
	case src != nil:
		read = d.chain(m)
		mirrorColumns(rows, windows, read, src)
	case shape&tableChain != 0:
		read = d.chain(m)
		err = r.chainColumns(rows, windows, read)
	default:
		m, err = r.rawColumns(rows, shape)
	}
	if err != nil {
		return nil, err
	}
	if shape&tableKeyed != 0 {
		err = r.keyedThresholds(rows)
	} else {
		err = r.thresholdRuns(rows, shape)
	}
	if err != nil {
		return nil, err
	}
	if shape&tablePass != 0 {
		bitmap := (n + 7) / 8
		if len(r.buf) < bitmap || n%8 != 0 && r.buf[bitmap-1]>>(n%8) != 0 {
			return nil, fmt.Errorf("verdict table: pass bitmap")
		}
		for i := range rows {
			rows[i].Pass = r.buf[i/8]>>(i%8)&1 != 0
		}
		r.buf = r.buf[bitmap:]
	} else {
		for i := range rows {
			rows[i].Pass = rows[i].Distance <= rows[i].Threshold
		}
	}
	var rebuilt []uint32
	if read != nil {
		d.rebuilt = append(d.rebuilt[:0], read.base...)
		rebuilt = d.rebuilt
	}
	d.src = src
	s, mm, ch := tableShape(rows, rebuilt, d)
	d.src = nil
	if s != shape&^tableKeyed || mm != m {
		return nil, fmt.Errorf("verdict table: shape %#x (m=%d) where the encoder writes %#x (m=%d)", shape&^tableKeyed, m, s, mm)
	}
	if ch != nil && s&tableMirror == 0 && !slices.Equal(ch.base, rebuilt) {
		return nil, fmt.Errorf("verdict table: chain base %v where the encoder writes %v", rebuilt, ch.base)
	}
	return rows, nil
}

// keyedThresholds reads a keyed table's thresholds into rows, whose other
// columns it has read: a value for each row that has no grid key, its key's
// binding for the rest.
func (r *breader) keyedThresholds(rows []behavior.SuffixResult) error {
	d := r.dict
	prev := noSlot
	for i := range rows {
		slot, bits := rowSlot(&rows[i]), uint64(0)
		switch {
		case slot == noSlot:
			v, err := r.threshold()
			if err != nil {
				return err
			}
			bits = math.Float64bits(v)
		case slot == prev:
			bits = math.Float64bits(rows[i-1].Threshold)
		default:
			var ok bool
			if bits, ok = d.readBound(slot); !ok {
				return fmt.Errorf("verdict table: a keyed row on grid slot %d, which nothing bound", slot)
			}
		}
		rows[i].Threshold, prev = math.Float64frombits(bits), slot
	}
	return nil
}

// thresholdRuns reads the threshold runs of a table of the given shape into
// rows, whose other columns it has read, and refuses them when the table
// would have been keyed.
func (r *breader) thresholdRuns(rows []behavior.SuffixResult, shape byte) error {
	n := len(rows)
	for i := 0; i < n; {
		v, err := r.threshold()
		if err != nil {
			return err
		}
		run, err := r.uvarint()
		if err != nil {
			return err
		}
		if run == 0 || run > uint64(n-i) || i > 0 && math.Float64bits(v) == math.Float64bits(rows[i-1].Threshold) {
			return fmt.Errorf("verdict table: threshold run of %d at row %d of %d", run, i, n)
		}
		for ; run > 0; run-- {
			rows[i].Threshold = v
			i++
		}
	}
	if shape&(tableWindows|tablePHat) == 0 && r.dict.keyTable(rows) {
		return fmt.Errorf("verdict table: threshold runs where the encoder keys the rows")
	}
	return nil
}

// threshold reads a threshold value: a ref into the frame's dictionary, or
// 0 and a literal the dictionary does not hold yet, which joins it.
func (r *breader) threshold() (float64, error) {
	ref, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	d := r.dict
	if ref > uint64(len(d.bits)) {
		return 0, fmt.Errorf("verdict table: threshold ref %d past the frame's %d", ref, len(d.bits))
	}
	if ref > 0 {
		return math.Float64frombits(d.bits[ref-1]), nil
	}
	v, err := r.float()
	if err != nil {
		return 0, err
	}
	bits := math.Float64bits(v)
	if dup := d.ref[bits]; dup != 0 {
		return 0, fmt.Errorf("verdict table: threshold literal %#x repeats ref %d", bits, dup)
	}
	d.add(bits)
	return v, nil
}

// rawColumns reads the transactions, windows, good and distance columns of
// a table that is not a chain, and returns the m its Windows derive from.
func (r *breader) rawColumns(rows []behavior.SuffixResult, shape byte) (m int, err error) {
	n := len(rows)
	for i, prev := 0, 0; i < n; i++ {
		if prev, err = r.delta(prev); err != nil {
			return 0, err
		}
		rows[i].Transactions = prev
	}
	if shape&tableWindows == 0 {
		if m, err = r.int(); err != nil {
			return 0, err
		}
		if m == 0 {
			return 0, fmt.Errorf("verdict table: window size 0")
		}
	}
	for i, prev := 0, 0; i < n; i++ {
		if m > 0 {
			rows[i].Windows = rows[i].Transactions / m
			continue
		}
		if prev, err = r.delta(prev); err != nil {
			return 0, err
		}
		rows[i].Windows = prev
	}
	for i, good := 0, 0; i < n; i++ {
		if shape&tablePHat != 0 {
			rows[i].PHat, err = r.float()
		} else {
			good, err = r.delta(good)
			rows[i].PHat = float64(good) / float64(rows[i].Transactions)
		}
		if err != nil {
			return 0, err
		}
	}
	for i := range rows {
		if rows[i].Distance, err = r.float(); err != nil {
			return 0, err
		}
	}
	return m, nil
}

// chainHead reads a chain's first-row window count and m, and refuses them
// before n rows are allocated unless the bytes left can back the chain's
// counts at one bit each, the least a Rice code takes. A chain mirrored
// from src writes, for the window count, how many fewer windows it has than
// src's bits hold.
func (r *breader) chainHead(n int, src goodSource) (windows, m int, err error) {
	if windows, err = r.int(); err != nil {
		return 0, 0, err
	}
	if m, err = r.int(); err != nil {
		return 0, 0, err
	}
	if m == 0 || m > behavior.MaxWindowSize {
		return 0, 0, fmt.Errorf("verdict table: chain of window size %d", m)
	}
	if src != nil {
		if windows > src.Len()/m {
			return 0, 0, fmt.Errorf("verdict table: a mirrored chain %d windows short of the %d its bits hold", windows, src.Len()/m)
		}
		windows = src.Len()/m - windows
	}
	if windows < n || windows > math.MaxInt32/m {
		return 0, 0, fmt.Errorf("verdict table: chain of %d rows from %d windows of %d", n, windows, m)
	}
	if src == nil && uint64(windows) > 8*uint64(len(r.buf)) {
		return 0, 0, fmt.Errorf("verdict table: chain of %d rows in %d bytes", n, len(r.buf))
	}
	return windows, m, nil
}

// chainColumns reads a chain's Rice parameter and counts and rebuilds its
// rows but their thresholds, from the shortest up, with ch, whose base it
// leaves holding the shortest row's window histogram as written.
func (r *breader) chainColumns(rows []behavior.SuffixResult, windows int, ch *chain) error {
	n, m := len(rows), len(ch.base)-1
	b, err := r.byte()
	if err != nil {
		return err
	}
	k := int(b)
	if k > maxRice {
		return fmt.Errorf("verdict table: Rice parameter %d", k)
	}
	counts := bitReader{buf: r.buf}
	next := func() (int, error) { // a count c: the Rice code of m − c
		x, err := counts.rice(k, m)
		if errors.Is(err, errRiceRange) {
			return 0, fmt.Errorf("verdict table: window count below 0")
		} else if err != nil {
			return 0, fmt.Errorf("verdict table: window counts: %v", err)
		}
		return m - x, nil
	}
	w, g, hist := windows-n+1, 0, ch.hist
	for i, prev := 0, 0; i < w; i++ {
		c, err := next()
		if err != nil {
			return err
		}
		if c < prev {
			return fmt.Errorf("verdict table: chain base out of order")
		}
		hist[c]++
		g, prev = g+c, c
	}
	copy(ch.base, hist)
	for i := n - 1; i >= 0; i-- {
		if i < n-1 {
			c, err := next()
			if err != nil {
				return err
			}
			hist[c]++
			g += c
			w++
		}
		s := &rows[i]
		s.Windows, s.Transactions = w, w*m
		s.PHat = float64(g) / float64(s.Transactions)
		s.Distance = ch.distance(w, s.PHat)
	}
	used, err := counts.end()
	if err != nil {
		return fmt.Errorf("verdict table: chain counts: %v", err)
	}
	r.buf = r.buf[used:]
	if best := riceParam(hist); k != best {
		return fmt.Errorf("verdict table: Rice parameter %d where the encoder writes %d", k, best)
	}
	return nil
}
