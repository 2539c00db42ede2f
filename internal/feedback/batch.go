package feedback

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"
)

// The record-batch column encoding is how records travel in bulk: a ledger
// commit group is one such batch, and so are the records of a submit.batch,
// fwd.submit.batch or history.resp frame (ADR 0008). Order is the batch's
// order. Integers are uvarints in their shortest form:
//
//	count    records
//	times    the time column (times.go): the first time, the greatest
//	         common divisor of the differences, each difference over it
//	servers  count × id reference into the server dictionary
//	clients  count × id reference into the client dictionary
//	good     ⌈count/8⌉ bytes, bit i%8 of byte i/8 set when record i is
//	         positive — ratings are binary; padding bits are zero
//
// An id reference is a uvarint v read against a dictionary holding n ids:
// v < n is the id in slot v; v == n introduces an id — its length and bytes
// follow — which takes slot n while n < MaxBatchDict and is not remembered
// otherwise. An id the dictionary holds is always written as its slot, so an
// introduced id is never one already there.
//
// The dictionaries outlive the batch: they belong to whatever contains it —
// a ledger segment, whose blocks share them from the header on, or a wire
// frame, which starts them empty — and encoder and decoder keep them in step
// by walking the same batches in the same order.

// MaxBatchDict caps each of the two dictionaries. A stream that never repeats
// an id (Sybil clients) fills them and from then on pays for every id in
// full, as a row encoding would, instead of growing a map without bound.
const MaxBatchDict = 1 << 16

// BatchDicts is the state a run of batches shares: the server and client ids
// seen so far in the container, and the container's time layout. The zero
// value is the empty state a container starts in.
type BatchDicts struct {
	servers, clients batchDict
	nanos            []int64 // scratch: the time column of the batch at hand
	// Unscaled selects the time column without a scale that ledger segment
	// v2 holds (ADR 0014), for both encoding and decoding. Nothing writes
	// such a container any more; a reader sets it to replay one.
	Unscaled bool
}

// Len reports how many server and client ids the dictionaries hold.
func (d *BatchDicts) Len() (servers, clients int) {
	return len(d.servers.ids), len(d.clients.ids)
}

// Reset empties the dictionaries for their next container. A container as
// short-lived as a wire frame reuses one BatchDicts for the next through
// this: the ids are forgotten, the map and slice behind them are kept unless
// one batch grew them past what recycling is worth.
func (d *BatchDicts) Reset() {
	d.servers.reset()
	d.clients.reset()
	d.Unscaled = false
}

// maxKeptDict is the dictionary size above which Reset frees instead of
// clearing: clearing a map costs its capacity, not its length.
const maxKeptDict = 1024

// maxKeptTimes is the largest batch whose time column the scratch holds; a
// larger one gets a column of its own, so that it pins nothing.
const maxKeptTimes = 4096

// times returns a column for the n times of a batch.
func (d *BatchDicts) times(n int) []int64 {
	if n > maxKeptTimes {
		return make([]int64, n)
	}
	if cap(d.nanos) < n {
		d.nanos = make([]int64, max(n, 64))
	}
	return d.nanos[:n]
}

// batchDict is one column's dictionary: ids in slot order and their index.
type batchDict struct {
	ids  []EntityID
	slot map[EntityID]uint32
}

func (d *batchDict) remember(id EntityID) {
	if len(d.ids) == MaxBatchDict {
		return
	}
	if d.slot == nil {
		d.slot = make(map[EntityID]uint32)
	}
	d.slot[id] = uint32(len(d.ids))
	d.ids = append(d.ids, id)
}

func (d *batchDict) reset() {
	if len(d.ids) > maxKeptDict {
		*d = batchDict{}
		return
	}
	clear(d.ids) // drop the strings, keep the array
	d.ids = d.ids[:0]
	clear(d.slot)
}

// truncate forgets every id past the first n slots.
func (d *batchDict) truncate(n int) {
	for _, id := range d.ids[n:] {
		delete(d.slot, id)
	}
	d.ids = d.ids[:n]
}

func (d *batchDict) appendRef(buf []byte, id EntityID) []byte {
	if s, ok := d.slot[id]; ok {
		return binary.AppendUvarint(buf, uint64(s))
	}
	buf = binary.AppendUvarint(buf, uint64(len(d.ids)))
	buf = binary.AppendUvarint(buf, uint64(len(id)))
	buf = append(buf, id...)
	d.remember(id)
	return buf
}

// ref decodes one id reference. A slot's id is the dictionary's own string,
// so only an introduced id allocates.
func (d *batchDict) ref(buf []byte) (EntityID, []byte, error) {
	if len(buf) > 0 && buf[0] < 0x80 && int(buf[0]) < len(d.ids) { // a one-byte slot
		return d.ids[buf[0]], buf[1:], nil
	}
	v, buf, err := columnUvarint(buf)
	if err != nil {
		return "", nil, err
	}
	if n := uint64(len(d.ids)); v < n {
		return d.ids[v], buf, nil
	} else if v > n {
		return "", nil, fmt.Errorf("%w: id slot %d of %d", ErrCorruptRecord, v, n)
	}
	size, buf, err := columnUvarint(buf)
	if err != nil {
		return "", nil, err
	}
	if size == 0 || size > maxEntityLen || size > uint64(len(buf)) {
		return "", nil, fmt.Errorf("%w: id of %d bytes, %d left", ErrCorruptRecord, size, len(buf))
	}
	if _, known := d.slot[EntityID(buf[:size])]; known {
		return "", nil, fmt.Errorf("%w: id %q introduced twice", ErrCorruptRecord, buf[:size])
	}
	id := EntityID(buf[:size])
	d.remember(id)
	return id, buf[size:], nil
}

// AppendBatch appends the column encoding of recs to buf, reading and
// extending d. Every record is validated before anything is written, so a
// refused batch leaves d as it was.
func AppendBatch(buf []byte, recs []Feedback, d *BatchDicts) ([]byte, error) {
	ts := d.times(len(recs))
	for i := range recs {
		if err := recs[i].Validate(); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		if len(recs[i].Server) > maxEntityLen || len(recs[i].Client) > maxEntityLen {
			return nil, fmt.Errorf("record %d: %w: entity id above %d bytes", i, ErrRecordTooLarge, maxEntityLen)
		}
		ts[i] = recs[i].Time.UnixNano()
	}
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	buf = appendTimes(buf, 0, 1, ts, !d.Unscaled)
	for i := range recs {
		buf = d.servers.appendRef(buf, recs[i].Server)
	}
	for i := range recs {
		buf = d.clients.appendRef(buf, recs[i].Client)
	}
	bits := len(buf)
	buf = append(buf, make([]byte, (len(recs)+7)/8)...)
	for i := range recs {
		if recs[i].Good() {
			buf[bits+i/8] |= 1 << (i % 8)
		}
	}
	return buf, nil
}

// DecodeBatch decodes buf — exactly one batch, nothing after it — against d
// and appends its records to dst. It accepts exactly what AppendBatch writes
// for the same dictionary state: every accepted input re-encodes to the same
// bytes. The count is bounded by the bytes present before anything is
// allocated. On error dst is returned as it came and d is left as it was.
func DecodeBatch(buf []byte, d *BatchDicts, dst []Feedback) ([]Feedback, error) {
	ns, nc := d.Len()
	out, err := decodeBatch(buf, d, dst)
	if err != nil {
		d.servers.truncate(ns)
		d.clients.truncate(nc)
		return dst, err
	}
	return out, nil
}

func decodeBatch(buf []byte, d *BatchDicts, dst []Feedback) ([]Feedback, error) {
	count, buf, err := columnUvarint(buf)
	if err != nil {
		return nil, err
	}
	// A record is at least a time byte and two reference bytes.
	if count > uint64(len(buf))/3 {
		return nil, fmt.Errorf("%w: %d records in %d bytes", ErrCorruptRecord, count, len(buf))
	}
	n := int(count)
	dst = slices.Grow(dst, n)
	recs := dst[len(dst) : len(dst)+n]
	ts := d.times(n)
	if _, _, buf, err = decodeTimes(buf, ts, !d.Unscaled); err != nil {
		return nil, err
	}
	for i := range recs {
		recs[i].Time = time.Unix(0, ts[i]).UTC()
	}
	for i := range recs {
		if recs[i].Server, buf, err = d.servers.ref(buf); err != nil {
			return nil, fmt.Errorf("record %d server: %w", i, err)
		}
	}
	for i := range recs {
		if recs[i].Client, buf, err = d.clients.ref(buf); err != nil {
			return nil, fmt.Errorf("record %d client: %w", i, err)
		}
	}
	if bits := (n + 7) / 8; len(buf) != bits || n%8 != 0 && buf[bits-1]>>(n%8) != 0 {
		return nil, fmt.Errorf("%w: rating bitmap", ErrCorruptRecord)
	}
	for i := range recs {
		recs[i].Rating = Negative
		if buf[i/8]>>(i%8)&1 != 0 {
			recs[i].Rating = Positive
		}
	}
	return dst[:len(dst)+n], nil
}
