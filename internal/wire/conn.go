package wire

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// A binary connection's state (ADR 0006). The clients of a reputation system
// consult the same servers before every interaction, so a connection carries
// the same names, thresholds and histories frame after frame. Each end of a
// binary connection keeps one connState, and in it, for the direction it
// writes and the one it reads, three tables that the frames crossing that
// direction build:
//
//   - a name table: every entity id and tester or trust-function name a
//     payload writes is bound to a slot once, and is a ref after that
//     (names.go);
//   - grid bindings: a calibration grid point is bound to its threshold
//     once, and a verdict row on it writes no threshold (verdict.go);
//   - a history mirror: the good bits of the histories the frames' verdicts
//     judged, from which a chain is rebuilt without its window counts
//     (mirror.go).
//
// A frame adds to them in sections at the head of its binary payload, in the
// order name section, binding section, mirror section, each present when its
// frame flag is set (v2.go). The writer plans a frame's sections when it
// encodes the frame, against the frames its direction has committed, and the
// plan rides on the Envelope. Commit then applies it at the writer, after
// the frame joins its burst — never a frame encoded and not written — and
// at the reader reads the sections into the tables before the frame is handed
// on to be decoded. So both ends hold the sections of the same frames, added
// in the order the connection carried them, and a frame decodes on any
// goroutine, at any time after its commit, against what the frames up to its
// own left. A reader refuses every section no encoder writes, and a refused
// frame breaks the connection: every later Commit and DecodePayload on it
// fails, and its peer redials.
//
// A codec without a connection (V2Codec) gives each frame a fresh state of
// zero bounds, limits{}: its tables hold nothing and have no room, so the
// frame binds the grid points its rows use in its own binding section,
// spells every name literal and mirrors nothing, and its reader refuses a
// name or a mirror section by the bounds every connection's reader checks.
// A bridged connection's payloads are JSON.
type connState struct {
	broken  atomic.Bool // a frame was refused: the far end's tables may differ
	out, in side        // the direction this end writes, and the one it reads
}

// side is one direction's state at one end: the frames it has committed and
// the tables they built. Encoders plan against the writer's side while Commit
// adds to it, under mu; the reader's side is written by Commit alone, on the
// connection's reading goroutine, and read by decoders through atomic slots
// and their frames' own views.
type side struct {
	mu     sync.Mutex
	seq    uint64 // the frames committed; a name slot and a mirror slot keep the one that wrote it
	grid   bindings
	names  nameTable
	mirror mirror
	limits
}

// limits bounds a direction's tables.
type limits struct {
	nameSlots, nameBytes    int // a name table's names and their bytes
	mirrorSlots, mirrorBits int // a mirror's slots and the bits they hold
}

// connLimits is every connection's bounds: past its table's, a name rides
// literal; the mirror evicts to stay within its own.
var connLimits = limits{nameSlots: maxNames, nameBytes: maxNameBytes, mirrorSlots: maxMirrorSlots, mirrorBits: maxMirrorBits}

// newConnState returns the state of a connection end whose tables hold
// nothing yet, within lim.
func newConnState(lim limits) *connState {
	st := &connState{}
	for _, s := range []*side{&st.out, &st.in} {
		s.grid.rows, s.limits = bindingRows(), lim
	}
	return st
}

// errBroken refuses a frame on a connection that refused one before: its
// tables may differ from the far end's, so a node closes the connection
// after an id-0 error, as for any malformed frame.
var errBroken = fmt.Errorf("%w: the connection's tables are broken by a frame refused before", ErrBadMessage)

// usable reports errBroken for a broken connection.
func (st *connState) usable() error {
	if st.broken.Load() {
		return errBroken
	}
	return nil
}

// refuse breaks the connection over a frame it refused, and returns err.
func (st *connState) refuse(err error) error {
	st.broken.Store(true)
	return err
}

// commit adds env's frame to the connection (Codec.Commit): it refuses a
// frame on a broken connection, and breaks the connection over a frame
// whose sections it refuses.
func (st *connState) commit(env *Envelope) error {
	if err := st.usable(); err != nil {
		return err
	}
	if err := st.add(env); err != nil {
		return st.refuse(fmt.Errorf("%w: %s section: %v", ErrBadMessage, env.Type, err))
	}
	return nil
}

// framePlan is what a frame does to its connection. At the writer it is the
// plan Encode made, side being the writer's; at the reader, what Commit read,
// side being the reader's and seq the frame's place among the frames it has
// committed, up to which the frame's name refs read the table. sections is
// nil for a frame that has none.
type framePlan struct {
	side *side
	seq  uint64
	*sections
}

// sections is what a frame's sections hold: the name bindings, ascending by
// slot, and the grid slots, ascending, with their bits; the writer's mirror
// rows and evictions; at the reader, the bits each mirror row left in its
// slot — views no later commit writes to — and the sections' bytes.
type sections struct {
	names []nameBinding
	grid  []uint32
	bits  []uint64
	rows  []mirrorRow
	evict []uint32
	views []goodBits
	size  int
}

// add applies env's frame to the connection's tables: a frame this end
// encoded by its plan, at the writer's side, and any other binary frame by
// the sections it reads at the reader's, which become the plan the frame
// decodes with.
func (st *connState) add(env *Envelope) error {
	p, in := &env.plan, &st.in
	if p.side == &st.out {
		return st.out.commitWritten(p.sections)
	}
	if !env.Binary {
		if env.Names || env.Bindings || env.Mirror {
			return errors.New("a section on a JSON payload")
		}
		return nil
	}
	in.seq++
	*p = framePlan{side: in, seq: in.seq}
	if !env.Names && !env.Bindings && !env.Mirror {
		return nil
	}
	r := &breader{buf: env.Payload, dict: getFrameDict(in)}
	defer r.release()
	p.sections = new(sections)
	if err := r.sections(env, in, p.sections); err != nil {
		return err
	}
	in.bind(p.sections)
	return nil
}

// commitWritten applies the plan of a frame the writer has written.
func (s *side) commitWritten(p *sections) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	if p == nil {
		return nil
	}
	s.bind(p)
	return s.commitSent(p)
}

// bind binds the names and grid points of a frame's sections, at either
// end, for the frame s has just committed. A name a frame before bound
// keeps that frame.
func (s *side) bind(p *sections) {
	for _, b := range p.names {
		if s.names.lookup(uint64(b.slot)) == nil {
			s.names.bind(b.slot, b.name, s.seq)
		}
	}
	for i, slot := range p.grid {
		s.grid.bind(slot, p.bits[i])
	}
}

// sections reads the sections heading env's binary payload into p, at the
// reader's Commit into s, binding the frame's names and mirror rows. It
// refuses every section an encoder does not write.
func (r *breader) sections(env *Envelope, s *side, p *sections) error {
	start := len(r.buf)
	if env.Names {
		if err := r.nameSection(s, p); err != nil {
			return err
		}
	}
	switch env.Type {
	case TypeAssessR, TypeAssessBR, TypeFwdAssessBR: // the types that carry verdicts
	default:
		if env.Bindings || env.Mirror {
			return fmt.Errorf("a section on a %s payload", env.Type)
		}
	}
	if env.Bindings {
		if err := r.bindings(&s.grid, p); err != nil {
			return err
		}
	}
	if env.Mirror {
		if err := r.mirrorSection(s, p); err != nil {
			return err
		}
	}
	p.size = start - len(r.buf)
	return nil
}

// errUncommitted refuses a frame on a connection whose reader did not commit
// it: it has no place among the frames to read its refs and rows at.
var errUncommitted = errors.New("a frame the connection did not commit")

// head moves r past the sections heading env's payload and gives the frame's
// dictionaries what the reader's Commit read.
func (r *breader) head(env Envelope, st *connState) error {
	p := env.plan
	if p.side != &st.in || (p.sections != nil) != (env.Names || env.Bindings || env.Mirror) {
		return errUncommitted
	}
	d := getFrameDict(p.side)
	r.dict, d.seq = d, p.seq
	if p.sections != nil {
		d.read = p.sections
		if p.size > len(r.buf) {
			return errUncommitted
		}
		r.buf = r.buf[p.size:]
		d.nameRead = slices.Grow(d.nameRead[:0], len(p.names))[:len(p.names)]
		clear(d.nameRead)
	}
	return nil
}

// unread refuses a section entry none of the frame's refs read, which no
// encoder writes: a name binding no name ref reads, a grid binding no keyed
// row reads, a mirror row no chain reads.
func (d *frameDict) unread() error {
	s := d.read
	if i := slices.Index(d.nameRead, false); i >= 0 {
		return fmt.Errorf("name section binds slot %d, which no ref of the frame reads", s.names[i].slot)
	}
	if d.nRead != len(s.grid) {
		return fmt.Errorf("binding section binds %d slots, of which the frame's keyed rows read %d", len(s.grid), d.nRead)
	}
	if d.nViews != len(s.views) {
		return fmt.Errorf("mirror section of %d rows, of which the frame's chains read %d", len(s.views), d.nViews)
	}
	return nil
}

// head writes the sections of the frame d encoded at the head of its
// payload, buf[at:], in their order — names, bindings, mirror — sets env's
// payload and section flags, and gives env its plan, what the frame's Commit
// applies at the writer.
func (d *frameDict) head(env *Envelope, buf []byte, at int) {
	env.Names, env.Bindings, env.Mirror = len(d.nameBinds) > 0, len(d.bound) > 0, len(d.mirRows) > 0
	env.plan.side = d.dir
	var p *sections
	if env.Names || env.Bindings || env.Mirror {
		p = new(sections)
		env.plan.sections = p
	}
	sec := d.appendNames(d.secBuf[:0], p)
	sec = d.appendBindings(sec, p)
	sec = d.appendMirror(sec, p)
	d.secBuf = sec
	env.Payload = insertAt(buf, at, sec)
}

// insertAt inserts sec into buf at position at.
func insertAt(buf []byte, at int, sec []byte) []byte {
	n := len(buf)
	buf = slices.Grow(buf, len(sec))[:n+len(sec)]
	copy(buf[at+len(sec):], buf[at:n])
	copy(buf[at:], sec)
	return buf
}
