package wire

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"honestplayer/internal/feedback"
)

// A connection's name tables (conn.go). A name is bound to a numbered slot
// once, in a name section at the head of the payload of a frame that uses
// it, and every payload writes it after that as its slot:
//
//	n      uvarint: the bindings, at least one
//	n ×    uvarint: the slot's distance past the binding before, less one
//	       (the first binding's: its slot), so the slots ascend;
//	       the name: uvarint length, at least 1, and its bytes
//
// A name in a payload — an entity id, a tester or trust-function name, the
// id a record batch introduces (ADR 0008) — is then a ref:
//
//	v      uvarint: v ≥ 1 is the name slot v − 1 holds, bound by the frame's
//	       own section or by a frame the connection carried before; 0 is
//	       followed by the name as a string, a literal, for a name the
//	       table has no room for and for the empty name
//
// An encoder reserves a name's slot at its first use, and a frame carries
// the binding of every name it uses that no committed frame has carried. A
// slot is bound once and never to another name; binding it again to the
// name it holds is accepted, so frames planned side by side may each carry
// it. Past maxNames names or maxNameBytes bytes a name rides literal.
const (
	maxNames     = 1 << 14
	maxNameBytes = 256 << 10
)

// nameRowLen is the slots of a row of a table, allocated on the first
// binding in it.
const nameRowLen = 256

// nameTable is one direction's names at one end: the slot the writer has
// reserved for each name, and the name each bound slot holds, with the frame
// that bound it. A bound slot reads as the name it holds for good, on any
// goroutine.
type nameTable struct {
	slot  map[string]uint32 // the writer's reservations
	rows  [maxNames / nameRowLen]atomic.Pointer[[nameRowLen]atomic.Pointer[heldName]]
	bytes int // the names' bytes: the writer's reserved, the reader's bound
}

// heldName is a bound slot: its name and the frame that bound it.
type heldName struct {
	name string
	seq  uint64
}

func (t *nameTable) lookup(slot uint64) *heldName {
	if slot >= maxNames {
		return nil
	}
	if row := t.rows[slot/nameRowLen].Load(); row != nil {
		return row[slot%nameRowLen].Load()
	}
	return nil
}

func (t *nameTable) bind(slot uint32, name string, seq uint64) {
	at := &t.rows[slot/nameRowLen]
	row := at.Load()
	if row == nil {
		row = new([nameRowLen]atomic.Pointer[heldName])
		at.Store(row)
	}
	row[slot%nameRowLen].Store(&heldName{name: name, seq: seq})
}

// ref returns name's slot in the direction s writes, reserving the next one
// at its first use, and whether a committed frame carried its binding; ok is
// false for a name the table has no room for, and for the empty name.
func (s *side) ref(name string) (slot uint32, sent, ok bool) {
	if name == "" {
		return 0, false, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &s.names
	if slot, ok := t.slot[name]; ok {
		return slot, t.lookup(uint64(slot)) != nil, true
	}
	if len(t.slot) == s.nameSlots || t.bytes+len(name) > s.nameBytes {
		return 0, false, false
	}
	if t.slot == nil {
		t.slot = make(map[string]uint32)
	}
	slot = uint32(len(t.slot))
	t.slot[name] = slot
	t.bytes += len(name)
	return slot, false, true
}

// appendName writes name, an entity id or a tester or trust-function name,
// as the frame's connection spells it: a ref into the connection's table,
// the frame carrying the binding no committed frame has carried yet, or a
// literal when the table has no room for it. This is the one place a name
// is written into a binary payload.
func (d *frameDict) appendName(buf []byte, name string) []byte {
	slot, sent, ok := d.dir.ref(name)
	if !ok {
		return appendString(append(buf, 0), name)
	}
	if !sent {
		d.nameBinds = append(d.nameBinds, nameBinding{slot, name})
	}
	return binary.AppendUvarint(buf, uint64(slot)+1)
}

// appendNames appends the name section of the frame d encoded, when it
// binds a name; p, the frame's plan, records its bindings.
func (d *frameDict) appendNames(sec []byte, p *sections) []byte {
	if len(d.nameBinds) == 0 {
		return sec
	}
	slices.SortFunc(d.nameBinds, func(a, b nameBinding) int { return int(a.slot) - int(b.slot) })
	d.nameBinds = slices.Compact(d.nameBinds) // a name the frame wrote twice
	sec = binary.AppendUvarint(sec, uint64(len(d.nameBinds)))
	next := uint32(0)
	for _, b := range d.nameBinds {
		sec = binary.AppendUvarint(sec, uint64(b.slot-next))
		sec = appendString(sec, b.name)
		next = b.slot + 1
	}
	p.names = slices.Clone(d.nameBinds)
	return sec
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

// nameSection reads the name section heading r's payload into p, counting
// the bytes of the names new to s. It refuses a section of no bindings, an
// empty name, a slot or names past s's bounds and a slot bound to another
// name.
func (r *breader) nameSection(s *side, p *sections) error {
	n, err := r.count(2) // a distance and a name of one byte at least
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("name section of no bindings")
	}
	t, next := &s.names, uint64(0)
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
		if dist >= uint64(s.nameSlots) || slot >= uint64(s.nameSlots) {
			return fmt.Errorf("name section: slot %d of %d", slot, s.nameSlots)
		}
		name, held := string(r.buf[:size]), t.lookup(slot)
		switch {
		case held == nil:
			if t.bytes += size; t.bytes > s.nameBytes {
				return fmt.Errorf("name section: names of %d bytes, past the %d a connection holds", t.bytes, s.nameBytes)
			}
		case held.name != name:
			return fmt.Errorf("name section rebinds slot %d from %q to %q", slot, held.name, name)
		}
		p.names = append(p.names, nameBinding{uint32(slot), name})
		r.buf = r.buf[size:]
		next = slot + 1
	}
	return nil
}

// name reads a name appendName wrote.
func (r *breader) name() (string, error) {
	d := r.dict
	v, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if v == 0 {
		return r.string()
	}
	held := d.dir.names.lookup(v - 1)
	if held == nil || held.seq > d.seq {
		return "", fmt.Errorf("a ref to name slot %d, which nothing bound before the frame", v-1)
	}
	if i, ok := slices.BinarySearchFunc(d.read.names, uint32(v-1), func(b nameBinding, slot uint32) int { return cmp.Compare(b.slot, slot) }); ok {
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
