package feedback

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
)

// The column encoding is a History's durable form: what a snapshot section
// holds (ADR 0005). The server ID is the container's to store. Integers are
// uvarints in their shortest form:
//
//	count     records
//	nclients  dictionary entries
//	clients   nclients × (length, bytes), in slot order
//	times     the time column (times.go): the first time, the greatest
//	          common divisor of the differences, each difference over it
//	slots     count × dictionary slot
//	good      ⌈count/8⌉ bytes, bit i%8 of byte i/8 set when record i is
//	          positive — ratings are binary; padding bits are zero
//
// The good bytes are the history's good-bit words, little-endian, so
// decoding loads them a word at a time; the rank index is not stored, and
// decoding rebuilds it. A history whose quotients fit int32 decodes
// straight into them, and encodes from them (ADR 0018).

// AppendColumns appends h's column encoding to buf and returns the extended
// buffer.
func (h *History) AppendColumns(buf []byte) []byte {
	n := h.Len()
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(h.ends)))
	for s := range h.ends {
		c := h.client(uint32(s))
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		buf = append(buf, c...)
	}
	if h.t64 != nil {
		buf = appendTimes(buf, 0, 1, h.t64)
	} else {
		buf = appendTimes(buf, h.base, h.scale, h.t32)
	}
	for i := range n {
		buf = binary.AppendUvarint(buf, uint64(h.slot(i)))
	}
	for k, left := 0, (n+7)/8; left > 0; k++ {
		x := h.goodWord(k)
		if left >= 8 {
			buf = binary.LittleEndian.AppendUint64(buf, x)
			left -= 8
			continue
		}
		for ; left > 0; left-- {
			buf = append(buf, byte(x))
			x >>= 8
		}
	}
	return buf
}

// DecodeColumns decodes one history of the given server from the front of
// buf and returns it with the remaining bytes. It accepts exactly what
// AppendColumns writes — every accepted input re-encodes to the same bytes —
// and checks what Append would have: a non-empty server, non-empty and
// distinct clients, slots inside the dictionary. Counts are bounded by the
// bytes present before anything is allocated. The client names go into one
// builder allocation, and the table that finds a duplicate among them is
// the one the history's next Append looks clients up in.
func DecodeColumns(server EntityID, buf []byte) (*History, []byte, error) {
	if server == "" {
		return nil, nil, fmt.Errorf("%w: server", ErrEmptyEntity)
	}
	count, buf, err := columnUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	nclients, buf, err := columnUvarint(buf)
	if err != nil {
		return nil, nil, err
	}
	// A record is at least a time byte and a slot byte, a client at least a
	// length byte and one of data; slots are 32-bit.
	if most := uint64(len(buf)) / 2; count > most || nclients > most-count || nclients > math.MaxUint32 {
		return nil, nil, fmt.Errorf("%w: %d records, %d clients in %d bytes", ErrCorruptRecord, count, nclients, len(buf))
	}
	// Grow rounds each column up to what the allocator hands over for its
	// size anyway, so the first appends after a decode do not reallocate.
	n := int(count)
	h := NewHistory(server)
	h.ends = make([]uint32, nclients) // before Grow: it sets the slot width
	h.Grow(n)
	h.t32 = h.t32[:n]
	if h.wide() {
		h.client32 = h.client32[:n]
	} else {
		h.client16 = h.client16[:n]
	}
	// A first pass checks the lengths and sums them, so that a second can
	// copy the names into a builder of exactly that size.
	dict, total := buf, uint64(0)
	for i := range h.ends {
		var size uint64
		if size, buf, err = columnUvarint(buf); err != nil {
			return nil, nil, err
		}
		if size == 0 || size > uint64(len(buf)) {
			return nil, nil, fmt.Errorf("%w: client %d of %d bytes, %d left", ErrCorruptRecord, i, size, len(buf))
		}
		buf = buf[size:]
		total += size
		h.ends[i] = uint32(total)
	}
	if total > math.MaxUint32 {
		return nil, nil, fmt.Errorf("%w: %d bytes of client ids", ErrCorruptRecord, total)
	}
	h.b = new(strings.Builder)
	h.b.Grow(int(total))
	for range h.ends {
		size, used := binary.Uvarint(dict)
		dict = dict[used:]
		h.b.Write(dict[:size])
		dict = dict[size:]
	}
	h.names = h.b.String()
	if c := h.rehash(); c != "" {
		return nil, nil, fmt.Errorf("%w: client %q twice in the dictionary", ErrCorruptRecord, c)
	}
	base, scale, rest, err := decodeTimes(buf, h.t32)
	if err == errNarrow {
		h.t32, h.t64 = nil, slices.Grow([]int64(nil), n)[:n]
		_, _, rest, err = decodeTimes(buf, h.t64)
	}
	if err != nil {
		return nil, nil, err
	}
	h.base, h.scale, h.inv, buf = base, scale, inverse(scale), rest
	for i := range n {
		var slot uint64
		if len(buf) > 0 && buf[0] < 0x80 { // a one-byte slot, as most are
			slot, buf = uint64(buf[0]), buf[1:]
		} else if slot, buf, err = columnUvarint(buf); err != nil {
			return nil, nil, err
		}
		if slot >= nclients {
			return nil, nil, fmt.Errorf("%w: record %d names client slot %d of %d", ErrCorruptRecord, i, slot, nclients)
		}
		if h.wide() {
			h.client32[i] = uint32(slot)
		} else {
			h.client16[i] = uint16(slot)
		}
	}
	size := (n + 7) / 8
	if len(buf) < size || n%8 != 0 && buf[size-1]>>(n%8) != 0 {
		return nil, nil, fmt.Errorf("%w: rating bitmap", ErrCorruptRecord)
	}
	h.bits, h.rank = h.bits[:n/64], h.rank[:n/64+1]
	for w := range h.bits {
		h.bits[w] = binary.LittleEndian.Uint64(buf[8*w:])
		h.rank[w+1] = h.rank[w] + uint32(bits.OnesCount64(h.bits[w]))
	}
	for i, b := range buf[8*len(h.bits) : size] {
		h.last |= uint64(b) << (8 * i)
	}
	return h, buf[size:], nil
}

// goodWord returns the good-bits of records [64k, 64k+64), record 64k+j at
// bit j, whatever the history's bit offset; bits past the last record are
// zero.
func (h *History) goodWord(k int) uint64 {
	p := h.off + k<<6
	w, s := p>>6, p&63
	x := h.word(w) >> s
	if s != 0 && w < len(h.bits) {
		x |= h.word(w+1) << (64 - s)
	}
	return x
}

// columnUvarint decodes one shortest-form uvarint, returning the remainder.
func columnUvarint(buf []byte) (uint64, []byte, error) {
	v, used := binary.Uvarint(buf)
	if used <= 0 || used > 1 && buf[used-1] == 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorruptRecord)
	}
	return v, buf[used:], nil
}
