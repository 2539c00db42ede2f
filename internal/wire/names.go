package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"honestplayer/internal/feedback"
)

// A connection's name tables (ADR 0006's eighth amendment). The clients of
// a reputation system consult the same servers before every interaction, so
// a connection carries the same entity ids, and the same tester and trust
// function names, frame after frame. Each binary connection keeps a table
// of names in each direction: a name is bound to a numbered slot once, in
// a name section at the head of the payload of a frame that uses it (frame
// flag bit 3), and every payload writes it after that as its slot:
//
//	n      uvarint: the bindings, at least one
//	n ×    uvarint: the slot's distance past the binding before, less one
//	       (the first binding's: its slot), so the slots ascend;
//	       the name: uvarint length, at least 1, and its bytes
//
// A name in a payload — an entity id, a tester or trust-function name, the
// id a record batch introduces (ADR 0008's amendment) — is then a ref:
//
//	v      uvarint: v ≥ 1 is the name slot v − 1 holds, bound by the frame's
//	       own section or by a frame the connection carried before; 0 is
//	       followed by the name as a string, a literal, for a name the
//	       table has no room for and for the empty name
//
// A slot is bound once and never to another name; binding it again to the
// name it holds is accepted, so encoders need no lock between them: an
// encoder reserves a name's slot at its first use, under the table's
// mutex, and a frame carries the binding of every name it uses that no
// written frame has carried yet. Its writer commits the frame once WriteV2
// has taken it, and its reader before it hands the frame on (Codec.Commit),
// so a frame that is never written binds nothing, and a frame written after
// a committed one finds every binding that one carried at the reader. A
// table holds at most maxNames names of maxNameBytes in all; past that a
// name rides literal, and a reader refuses a binding past either bound. A
// frame that stands alone (V2Codec) and a bridged one write every name as
// a string, as revision 14 did.
const (
	maxNames     = 1 << 14
	maxNameBytes = 256 << 10
)

// nameRowLen is the slots of a row of a reader's table, allocated on the
// first binding in it.
const nameRowLen = 256

// connNames is a connection's two name tables at one end: the one it
// writes, and the one it reads.
type connNames struct {
	out nameSender
	in  nameReader
}

// nameSender is the writer's half of one direction's table: each name's
// slot, and whether a written frame has carried its binding.
type nameSender struct {
	mu    sync.Mutex
	slot  map[string]uint32
	sent  []bool // by slot
	bytes int
}

// ref returns name's slot, reserving the next one at its first use, and
// whether a written frame carried its binding; ok is false for a name the
// table has no room for, and for the empty name.
func (s *nameSender) ref(name string) (slot uint32, sent, ok bool) {
	if name == "" {
		return 0, false, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if slot, ok := s.slot[name]; ok {
		return slot, s.sent[slot], true
	}
	if len(s.sent) == maxNames || s.bytes+len(name) > maxNameBytes {
		return 0, false, false
	}
	if s.slot == nil {
		s.slot = make(map[string]uint32)
	}
	slot = uint32(len(s.sent))
	s.slot[name] = slot
	s.sent = append(s.sent, false)
	s.bytes += len(name)
	return slot, false, true
}

// commit marks the bindings a written frame carried as the reader's.
func (s *nameSender) commit(slots []uint32) {
	if len(slots) == 0 {
		return
	}
	s.mu.Lock()
	for _, slot := range slots {
		s.sent[slot] = true
	}
	s.mu.Unlock()
}

// nameReader is the reader's half of one direction's table. Only Commit
// binds, on the connection's one reading goroutine; a frame decodes on any
// goroutine, reading a slot as unbound or as the name it holds for good,
// with the frame that bound it.
type nameReader struct {
	rows  [maxNames / nameRowLen]atomic.Pointer[[nameRowLen]atomic.Pointer[heldName]]
	seq   uint64 // the binary frames committed
	bytes int    // the names' bytes
}

// heldName is a reader's slot: its name and the frame that bound it.
type heldName struct {
	name string
	seq  uint64
}

func (t *nameReader) lookup(slot uint32) *heldName {
	if row := t.rows[slot/nameRowLen].Load(); row != nil {
		return row[slot%nameRowLen].Load()
	}
	return nil
}

// bind binds slot to name for the frame seq: a binding the section of the
// seq-th frame makes. It refuses a slot past the bound, a name past the
// bytes bound, and a slot bound to another name.
func (t *nameReader) bind(slot uint64, name []byte, seq uint64) error {
	if slot >= maxNames {
		return fmt.Errorf("name section: slot %d of %d", slot, maxNames)
	}
	if held := t.lookup(uint32(slot)); held != nil {
		if held.name != string(name) {
			return fmt.Errorf("name section rebinds slot %d from %q to %q", slot, held.name, name)
		}
		return nil
	}
	if t.bytes += len(name); t.bytes > maxNameBytes {
		return fmt.Errorf("name section: names of %d bytes, past the %d a connection holds", t.bytes, maxNameBytes)
	}
	at := &t.rows[slot/nameRowLen]
	row := at.Load()
	if row == nil {
		row = new([nameRowLen]atomic.Pointer[heldName])
		at.Store(row)
	}
	row[slot%nameRowLen].Store(&heldName{name: string(name), seq: seq})
	return nil
}

// appendName writes name, an entity id or a tester or trust-function name,
// as the frame's connection spells it: a ref into the connection's table
// when the frame has one, the frame carrying the binding no written frame
// has carried yet, and otherwise the string itself. This is the one place a
// name is written into a binary payload.
func (d *frameDict) appendName(buf []byte, name string) []byte {
	if d == nil || d.names == nil {
		return appendString(buf, name)
	}
	slot, sent, ok := d.names.ref(name)
	if !ok {
		return appendString(append(buf, 0), name)
	}
	if !sent && !d.nameCarried[slot] {
		d.nameCarried[slot] = true
		d.nameBinds = append(d.nameBinds, nameBinding{slot, name})
	}
	return binary.AppendUvarint(buf, uint64(slot)+1)
}

// AppendName spells the id a record batch introduces (feedback.Names).
func (d *frameDict) AppendName(buf []byte, id feedback.EntityID) []byte {
	return d.appendName(buf, string(id))
}

// nameBinding is a binding a frame's name section carries.
type nameBinding struct {
	slot uint32
	name string
}

// headNames moves the name section of the frame d encoded to the head of
// its payload, buf[at:], and returns the slots it binds for Commit, nil for
// a frame without a section.
func (d *frameDict) headNames(buf []byte, at int) ([]byte, []uint32) {
	if len(d.nameBinds) == 0 {
		return buf, nil
	}
	slices.SortFunc(d.nameBinds, func(a, b nameBinding) int { return int(a.slot) - int(b.slot) })
	sec := binary.AppendUvarint(d.sec[:0], uint64(len(d.nameBinds)))
	slots, next := make([]uint32, len(d.nameBinds)), uint32(0)
	for i, b := range d.nameBinds {
		sec = binary.AppendUvarint(sec, uint64(b.slot-next))
		sec = appendString(sec, b.name)
		slots[i], next = b.slot, b.slot+1
	}
	d.sec = sec
	return insertAt(buf, at, sec), slots
}

// nameSection reads the name section heading r's payload: into t, binding
// its slots for the frame seq, at the reader's Commit; into the frame's
// dictionaries, the slots it binds, when the frame decodes (t nil). It
// refuses a section of no bindings, an empty name and every binding bind
// refuses.
func (r *breader) nameSection(t *nameReader, seq uint64) error {
	n, err := r.count(2) // a distance and a name of one byte at least
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("name section of no bindings")
	}
	d := r.frame()
	next := uint64(0)
	for range n {
		dist, err := r.uvarint()
		if err != nil {
			return err
		}
		size, err := r.count(1)
		if err != nil {
			return err
		}
		if size == 0 {
			return fmt.Errorf("name section: an empty name")
		}
		slot := next + dist
		if dist >= maxNames || slot >= maxNames {
			return fmt.Errorf("name section: slot %d of %d", slot, maxNames)
		}
		if t != nil {
			if err := t.bind(slot, r.buf[:size], seq); err != nil {
				return err
			}
		} else {
			d.nameSec = append(d.nameSec, uint32(slot))
		}
		r.buf = r.buf[size:]
		next = slot + 1
	}
	if t == nil {
		d.nameRead = slices.Grow(d.nameRead[:0], n)[:n]
		clear(d.nameRead)
	}
	return nil
}

// errNames refuses a frame with name refs that its reader did not commit,
// which has no place among the frames to read them at.
var errNames = errors.New("a frame the connection did not commit")

// name reads a name appendName wrote.
func (r *breader) name() (string, error) {
	d := r.dict // a frame with a name table took its dictionaries first
	if d == nil || d.nameIn == nil {
		return r.string()
	}
	v, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if v == 0 {
		return r.string()
	}
	held := (*heldName)(nil)
	if v <= maxNames {
		held = d.nameIn.lookup(uint32(v - 1))
	}
	if held == nil || held.seq > d.nameSeq {
		return "", fmt.Errorf("a ref to name slot %d, which nothing bound before the frame", v-1)
	}
	if i, ok := slices.BinarySearch(d.nameSec, uint32(v-1)); ok {
		d.nameRead[i] = true
	}
	return held.name, nil
}

// ReadName reads the id a record batch introduces (feedback.Names).
func (d *frameDict) ReadName(buf []byte) (feedback.EntityID, []byte, error) {
	r := breader{buf: buf, dict: d}
	name, err := r.name()
	return feedback.EntityID(name), r.buf, err
}

// unreadNames refuses a name section binding a slot none of the frame's
// refs read, which no encoder writes.
func (d *frameDict) unreadNames() error {
	for i, read := range d.nameRead {
		if !read {
			return fmt.Errorf("name section binds slot %d, which no ref of the frame reads", d.nameSec[i])
		}
	}
	return nil
}
