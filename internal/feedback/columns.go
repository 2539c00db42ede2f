package feedback

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The column encoding is a History's durable form: what a snapshot section
// holds (ADR 0005). The server ID is the container's to store. Integers are
// uvarints in their shortest form:
//
//	count     records
//	nclients  dictionary entries
//	clients   nclients × (length, bytes), in slot order
//	times     count × zig-zag varint: the first time in unix nanoseconds,
//	          then each record's difference from the one before
//	slots     count × dictionary slot
//	good      ⌈count/8⌉ bytes, bit i%8 of byte i/8 set when record i is
//	          positive — ratings are binary; padding bits are zero
//
// The good-transaction prefix sums are not stored; decoding rebuilds them.

// AppendColumns appends h's column encoding to buf and returns the extended
// buffer.
func (h *History) AppendColumns(buf []byte) []byte {
	n := len(h.nanos)
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(h.clients)))
	for _, c := range h.clients {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		buf = append(buf, c...)
	}
	var prev int64
	for _, t := range h.nanos {
		buf = binary.AppendVarint(buf, t-prev) // wraps, as decoding does
		prev = t
	}
	for _, c := range h.client {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	bits := len(buf)
	buf = append(buf, make([]byte, (n+7)/8)...)
	for i, r := range h.rating {
		if Rating(r).Good() {
			buf[bits+i/8] |= 1 << (i % 8)
		}
	}
	return buf
}

// DecodeColumns decodes one history of the given server from the front of
// buf and returns it with the remaining bytes. It accepts exactly what
// AppendColumns writes — every accepted input re-encodes to the same bytes —
// and checks what Append would have: a non-empty server, non-empty and
// distinct clients, slots inside the dictionary. Counts are bounded by the
// bytes present before anything is allocated. Like a bulk load, the result
// carries no client index until its first Append.
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
	h.Grow(n)
	h.nanos, h.client, h.rating, h.good = h.nanos[:n], h.client[:n], h.rating[:n], h.good[:n+1]
	h.clients = make([]EntityID, nclients)
	seen := make(map[EntityID]struct{}, nclients)
	for i := range h.clients {
		var size uint64
		if size, buf, err = columnUvarint(buf); err != nil {
			return nil, nil, err
		}
		if size == 0 || size > uint64(len(buf)) {
			return nil, nil, fmt.Errorf("%w: client %d of %d bytes, %d left", ErrCorruptRecord, i, size, len(buf))
		}
		c := EntityID(buf[:size])
		buf = buf[size:]
		if _, dup := seen[c]; dup {
			return nil, nil, fmt.Errorf("%w: client %q twice in the dictionary", ErrCorruptRecord, c)
		}
		seen[c] = struct{}{}
		h.clients[i] = c
		h.clientBytes += (len(c) + 7) &^ 7
	}
	var prev int64
	for i := range h.nanos {
		var zz uint64
		if zz, buf, err = columnUvarint(buf); err != nil {
			return nil, nil, err
		}
		prev += int64(zz>>1) ^ -int64(zz&1) // undoes AppendVarint's zig-zag
		h.nanos[i] = prev
	}
	for i := range h.client {
		var slot uint64
		if slot, buf, err = columnUvarint(buf); err != nil {
			return nil, nil, err
		}
		if slot >= nclients {
			return nil, nil, fmt.Errorf("%w: record %d names client slot %d of %d", ErrCorruptRecord, i, slot, nclients)
		}
		h.client[i] = uint32(slot)
	}
	bits := (n + 7) / 8
	if len(buf) < bits || n%8 != 0 && buf[bits-1]>>(n%8) != 0 {
		return nil, nil, fmt.Errorf("%w: rating bitmap", ErrCorruptRecord)
	}
	for i := range h.rating {
		h.rating[i] = uint8(Negative)
		h.good[i+1] = h.good[i]
		if buf[i/8]>>(i%8)&1 != 0 {
			h.rating[i] = uint8(Positive)
			h.good[i+1]++
		}
	}
	return h, buf[bits:], nil
}

// columnUvarint decodes one shortest-form uvarint, returning the remainder.
func columnUvarint(buf []byte) (uint64, []byte, error) {
	v, used := binary.Uvarint(buf)
	if used <= 0 || used > 1 && buf[used-1] == 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorruptRecord)
	}
	return v, buf[used:], nil
}
