package feedback

import (
	"encoding/binary"
	"fmt"
	"math"
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
// follow, or what the dictionaries' Names spells it as — which takes slot n
// while n < MaxBatchDict and is not remembered otherwise. An id the
// dictionary holds is always written as its slot, so an introduced id is
// never one already there.
//
// The dictionaries outlive the batch: they belong to whatever contains it —
// a ledger segment, whose blocks share them from the header on, or a wire
// frame, which starts them empty — and encoder and decoder keep them in step
// by walking the same batches in the same order.

//
// A decoded batch stays columns (ADR 0021): a Batch holds its ids once each
// and, per record, refs into them, the time and the good-bit. It is the one
// type the write path carries from the frame that brought the records to
// the ledger block that keeps them, and every record in it is valid: Append
// validates what it takes, and the decoder yields nothing else.

// MaxBatchDict caps each of the two dictionaries. A stream that never repeats
// an id (Sybil clients) fills them and from then on pays for every id in
// full, as a row encoding would, instead of growing a map without bound.
const MaxBatchDict = 1 << 16

// BatchDicts is the state a run of batches shares: the server and client ids
// seen so far in the container, and the container's time layout. The zero
// value is the empty state a container starts in.
type BatchDicts struct {
	servers, clients batchDict
	nanos            []int64  // scratch: the time column of a block of several batches
	remap            []uint32 // scratch: a batch's refs onto the dictionary's slots
	rows             Batch    // scratch: the batch the []Feedback edges go through
	// epoch names the Batch the dictionaries' refs columns currently map
	// slots into (Batch.Decode).
	epoch uint32
	// Unscaled selects the time column without a scale that ledger segment
	// v2 holds (ADR 0014), for both encoding and decoding. Nothing writes
	// such a container any more; a reader sets it to replay one.
	Unscaled bool
	// Names, when set, spells the id an intro introduces in place of its
	// length and bytes, for both encoding and decoding: a wire connection
	// spells it as a ref into its name table (ADR 0008's amendment). The
	// slots stay the dictionaries' own. Reset clears it.
	Names Names
}

// Names spells the ids a run of batches introduces (BatchDicts.Names).
// ReadName reads what AppendName wrote from the front of buf and returns the
// rest; the decoder checks the id as it checks one spelled in full.
type Names interface {
	AppendName(buf []byte, id EntityID) []byte
	ReadName(buf []byte) (EntityID, []byte, error)
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
	d.rows.Reset()
	d.Unscaled = false
	d.Names = nil
}

// maxKeptDict is the dictionary size above which Reset frees instead of
// clearing: clearing a map costs its capacity, not its length.
const maxKeptDict = 1024

// maxKeptTimes is the largest batch whose time column the scratch holds; a
// larger one gets a column of its own, so that it pins nothing.
const maxKeptTimes = 4096

// times returns a column for the n times of a block.
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
// refs[s] maps slot s to a ref of the Batch being decoded into, as
// epoch<<32 | ref; an entry of another epoch maps nothing.
type batchDict struct {
	ids  []EntityID
	slot map[EntityID]uint32
	refs []uint64
}

// remember gives id the next slot, unless the dictionary is full.
func (d *batchDict) remember(id EntityID) bool {
	if len(d.ids) == MaxBatchDict {
		return false
	}
	if d.slot == nil {
		d.slot = make(map[EntityID]uint32)
	}
	d.slot[id] = uint32(len(d.ids))
	d.ids = append(d.ids, id)
	d.refs = append(d.refs, 0)
	return true
}

func (d *batchDict) reset() {
	if len(d.ids) > maxKeptDict {
		*d = batchDict{}
		return
	}
	clear(d.ids) // drop the strings, keep the array
	d.ids = d.ids[:0]
	d.refs = d.refs[:0]
	clear(d.slot)
}

// truncate forgets every id past the first n slots.
func (d *batchDict) truncate(n int) {
	for _, id := range d.ids[n:] {
		delete(d.slot, id)
	}
	d.ids = d.ids[:n]
	d.refs = d.refs[:n]
}

// appendIntro appends the introduction of id: the next slot, then its
// length and its bytes, or names' spelling of it.
func (d *batchDict) appendIntro(buf []byte, id EntityID, names Names) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.ids)))
	if names != nil {
		return names.AppendName(buf, id)
	}
	buf = binary.AppendUvarint(buf, uint64(len(id)))
	return append(buf, id...)
}

// appendRefs appends one column of a batch — refs into ids — and extends d.
// Each distinct id is looked up in d once: remap[r] is 0 until ref r is
// met, then its slot + 1, or unremembered for an id the full dictionary
// spells out at every use.
func (d *batchDict) appendRefs(buf []byte, ids []EntityID, refs []uint32, remap []uint32, names Names) []byte {
	const unremembered = math.MaxUint32
	clear(remap)
	for _, r := range refs {
		s := remap[r]
		if s == 0 {
			id := ids[r]
			if slot, ok := d.slot[id]; ok {
				s = slot + 1
			} else {
				buf = d.appendIntro(buf, id, names)
				s = unremembered
				if d.remember(id) {
					s = uint32(len(d.ids))
				}
				remap[r] = s
				continue
			}
			remap[r] = s
		}
		if s == unremembered {
			buf = d.appendIntro(buf, ids[r], names)
		} else {
			buf = binary.AppendUvarint(buf, uint64(s-1))
		}
	}
	return buf
}

// AppendBatches appends bs, one after another, as the column encoding of
// one batch, reading and extending d. A Batch holds valid records only, so
// nothing is validated again.
func AppendBatches(buf []byte, d *BatchDicts, bs ...*Batch) []byte {
	n := 0
	for _, b := range bs {
		n += b.Len()
	}
	var ts []int64
	if len(bs) == 1 {
		ts = bs[0].nanos
	} else {
		ts = d.times(n)[:0]
		for _, b := range bs {
			ts = append(ts, b.nanos...)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = appendTimes(buf, 0, 1, ts, !d.Unscaled)
	for _, b := range bs {
		buf = d.servers.appendRefs(buf, b.servers.ids, b.server, d.scratch(len(b.servers.ids)), d.Names)
	}
	for _, b := range bs {
		buf = d.clients.appendRefs(buf, b.clients.ids, b.client, d.scratch(len(b.clients.ids)), d.Names)
	}
	bits := len(buf)
	buf = append(buf, make([]byte, (n+7)/8)...)
	k := 0
	for _, b := range bs {
		for i := range b.Len() {
			if b.GoodAt(i) {
				buf[bits+k/8] |= 1 << (k % 8)
			}
			k++
		}
	}
	return buf
}

// scratch returns d's remap table for a column of n ids.
func (d *BatchDicts) scratch(n int) []uint32 {
	if cap(d.remap) < n {
		d.remap = make([]uint32, n)
	}
	return d.remap[:n]
}

// AppendBatch appends the column encoding of recs to buf, reading and
// extending d: the []Feedback edge of AppendBatches. Every record is
// validated before anything is written, so a refused batch leaves d as it
// was.
func AppendBatch(buf []byte, recs []Feedback, d *BatchDicts) ([]byte, error) {
	b := &d.rows
	b.Reset()
	defer b.Reset()
	b.grow(len(recs))
	for i := range recs {
		if err := b.Append(recs[i]); err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
	}
	return AppendBatches(buf, d, b), nil
}

// DecodeBatch decodes buf — exactly one batch, nothing after it — against d
// and appends its records to dst: the []Feedback edge of Batch.Decode. On
// error dst is returned as it came and d is left as it was.
func DecodeBatch(buf []byte, d *BatchDicts, dst []Feedback) ([]Feedback, error) {
	b := &d.rows
	b.Reset()
	defer b.Reset()
	if err := b.Decode(buf, d); err != nil {
		return dst, err
	}
	if b.Len() == 0 {
		return dst, nil
	}
	dst = slices.Grow(dst, b.Len())
	for i := range b.Len() {
		dst = append(dst, b.At(i))
	}
	return dst, nil
}

// Batch is a run of valid records held as columns (ADR 0021): each server
// and client id once, per record a ref to each, its time in unix
// nanoseconds and its good-bit. The zero value is an empty batch. A batch
// takes its records from one source: Append, Decode against one
// BatchDicts, or Select.
type Batch struct {
	servers, clients batchIDs
	server, client   []uint32
	nanos            []int64
	bits             []uint64 // good-bits: record i is bit i%64 of word i/64
	// from and epoch bind the batch to the dictionaries it decodes from.
	from  *BatchDicts
	epoch uint32
}

// batchIDs is one column's ids, each once, in order of first use. index
// finds an id's ref for Append; it holds the first indexed ids and is
// caught up on demand. peak is the most it has held, what it is sized for.
type batchIDs struct {
	ids     []EntityID
	index   map[EntityID]uint32
	indexed int
	peak    int
}

// ref returns id's ref, adding id on first use.
func (x *batchIDs) ref(id EntityID) uint32 {
	if x.index == nil {
		x.index = make(map[EntityID]uint32)
	}
	for ; x.indexed < len(x.ids); x.indexed++ {
		x.index[x.ids[x.indexed]] = uint32(x.indexed)
	}
	if r, ok := x.index[id]; ok {
		return r
	}
	r := uint32(len(x.ids))
	x.ids = append(x.ids, id)
	return r
}

// truncate forgets every id past the first n. Clearing the index costs its
// size and deleting costs the ids it holds, so forgetting them all (Reset)
// clears it in one call when it holds at least a quarter of its peak and
// deletes id by id otherwise: a small batch's Reset does not pay for the map
// an earlier large batch grew (BenchmarkAppendBatch/large-then-small). An
// index grown past maxKeptDict ids is dropped instead.
func (x *batchIDs) truncate(n int) {
	x.peak = max(x.peak, x.indexed)
	switch {
	case x.indexed <= n:
	case n == 0 && x.indexed > maxKeptDict:
		x.index, x.peak = nil, 0
	case n == 0 && 4*x.indexed >= x.peak:
		clear(x.index)
	default:
		for _, id := range x.ids[n:x.indexed] {
			delete(x.index, id)
		}
	}
	x.indexed = min(x.indexed, n)
	clear(x.ids[n:])
	x.ids = x.ids[:n]
}

// Pack returns the batch of recs' valid records, in order. errs is nil when
// every record is valid, else errs[i] says why recs[i] is not in the batch.
func Pack(recs []Feedback) (b *Batch, errs []error) {
	b = new(Batch)
	b.grow(len(recs))
	for i := range recs {
		if err := b.Append(recs[i]); err != nil {
			if errs == nil {
				errs = make([]error, len(recs))
			}
			errs[i] = err
		}
	}
	return b, errs
}

// Len returns the number of records.
func (b *Batch) Len() int { return len(b.nanos) }

// Servers and Clients return the ids the refs name, once each; the slices
// belong to the batch.
func (b *Batch) Servers() []EntityID { return b.servers.ids }
func (b *Batch) Clients() []EntityID { return b.clients.ids }

// ServerRef, ClientRef, NanosAt and GoodAt read one field of record i: its
// server's and client's index into Servers and Clients, its time, and
// whether it is positive.
func (b *Batch) ServerRef(i int) uint32 { return b.server[i] }
func (b *Batch) ClientRef(i int) uint32 { return b.client[i] }
func (b *Batch) NanosAt(i int) int64    { return b.nanos[i] }
func (b *Batch) GoodAt(i int) bool      { return b.bits[i/64]>>(i%64)&1 != 0 }

func (b *Batch) rating(i int) Rating {
	if b.GoodAt(i) {
		return Positive
	}
	return Negative
}

// At returns record i, its time in UTC.
func (b *Batch) At(i int) Feedback {
	return Feedback{
		Time:   time.Unix(0, b.nanos[i]).UTC(),
		Server: b.servers.ids[b.server[i]],
		Client: b.clients.ids[b.client[i]],
		Rating: b.rating(i),
	}
}

// Records returns the records as rows.
func (b *Batch) Records() []Feedback {
	out := make([]Feedback, b.Len())
	for i := range out {
		out[i] = b.At(i)
	}
	return out
}

// Reset empties the batch, keeping its storage.
func (b *Batch) Reset() {
	b.truncate(0, 0, 0)
	b.from = nil
}

// Append validates f and adds it as the batch's last record.
func (b *Batch) Append(f Feedback) error {
	if err := f.Validate(); err != nil {
		return err
	}
	b.push(f.Time.UnixNano(), b.servers.ref(f.Server), b.clients.ref(f.Client), f.Good())
	return nil
}

func (b *Batch) push(nanos int64, server, client uint32, good bool) {
	i := b.Len()
	if i%64 == 0 {
		b.bits = append(b.bits, 0)
	}
	if good {
		b.bits[i/64] |= 1 << (i % 64)
	}
	b.nanos = append(b.nanos, nanos)
	b.server = append(b.server, server)
	b.client = append(b.client, client)
}

// grow makes room for n more records.
func (b *Batch) grow(n int) {
	b.nanos = slices.Grow(b.nanos, n)
	b.server = slices.Grow(b.server, n)
	b.client = slices.Grow(b.client, n)
	b.bits = slices.Grow(b.bits, (b.Len()+n+63)/64-len(b.bits))
}

// truncate cuts the batch back to n records over its first ns servers and
// nc clients.
func (b *Batch) truncate(n, ns, nc int) {
	b.nanos, b.server, b.client = b.nanos[:n], b.server[:n], b.client[:n]
	b.bits = b.bits[:(n+63)/64]
	if n%64 != 0 {
		b.bits[n/64] &= 1<<(n%64) - 1
	}
	b.servers.truncate(ns)
	b.clients.truncate(nc)
}

// Select returns a batch of b's records rows, in that order, with ids of
// its own.
func (b *Batch) Select(rows []int) *Batch {
	out := new(Batch)
	out.grow(len(rows))
	servers := make([]uint32, len(b.servers.ids)) // b's ref → out's ref + 1
	clients := make([]uint32, len(b.clients.ids))
	pick := func(m []uint32, x *batchIDs, ids []EntityID, r uint32) uint32 {
		if m[r] == 0 {
			x.ids = append(x.ids, ids[r])
			m[r] = uint32(len(x.ids))
		}
		return m[r] - 1
	}
	for _, i := range rows {
		out.push(b.nanos[i],
			pick(servers, &out.servers, b.servers.ids, b.server[i]),
			pick(clients, &out.clients, b.clients.ids, b.client[i]),
			b.GoodAt(i))
	}
	return out
}

// Decode decodes buf — exactly one batch, nothing after it — against d and
// appends its records to b. It accepts exactly what AppendBatches writes
// for the same dictionary state: every accepted input re-encodes to the
// same bytes. Each distinct id becomes one of b's ids once, through d's
// slot-to-ref columns, and decoding validates by construction: a decoded
// record has both ids, a binary rating and a time in range. The count is
// bounded by the bytes present before anything is allocated. On error b
// and d are left as they were.
func (b *Batch) Decode(buf []byte, d *BatchDicts) error {
	n, ns, nc := b.Len(), len(b.servers.ids), len(b.clients.ids)
	ds, dc := d.Len()
	if b.from != d || b.epoch != d.epoch {
		if d.epoch++; d.epoch == 0 { // 0 is the epoch of a fresh refs entry
			d.epoch++
		}
		b.from, b.epoch = d, d.epoch
	}
	if err := b.decode(buf, d); err != nil {
		b.truncate(n, ns, nc)
		b.from = nil // d's refs may name ids b no longer holds
		d.servers.truncate(ds)
		d.clients.truncate(dc)
		return err
	}
	return nil
}

func (b *Batch) decode(buf []byte, d *BatchDicts) error {
	count, buf, err := columnUvarint(buf)
	if err != nil {
		return err
	}
	// A record is at least a time byte and two reference bytes.
	if count > uint64(len(buf))/3 {
		return fmt.Errorf("%w: %d records in %d bytes", ErrCorruptRecord, count, len(buf))
	}
	n0, n := b.Len(), int(count)
	b.grow(n)
	b.nanos = b.nanos[:n0+n]
	if _, _, buf, err = decodeTimes(buf, b.nanos[n0:], !d.Unscaled); err != nil {
		return err
	}
	b.server, b.client = b.server[:n0+n], b.client[:n0+n]
	for i := n0; i < n0+n; i++ {
		if b.server[i], buf, err = b.servers.decodeRef(&d.servers, d.epoch, buf, d.Names); err != nil {
			return fmt.Errorf("record %d server: %w", i-n0, err)
		}
	}
	for i := n0; i < n0+n; i++ {
		if b.client[i], buf, err = b.clients.decodeRef(&d.clients, d.epoch, buf, d.Names); err != nil {
			return fmt.Errorf("record %d client: %w", i-n0, err)
		}
	}
	if bits := (n + 7) / 8; len(buf) != bits || n%8 != 0 && buf[bits-1]>>(n%8) != 0 {
		return fmt.Errorf("%w: rating bitmap", ErrCorruptRecord)
	}
	words := len(b.bits)
	b.bits = b.bits[:(n0+n+63)/64]
	clear(b.bits[words:])
	for j, x := range buf { // a byte at a time: bit i of byte j is record n0 + 8j + i
		p := n0 + 8*j
		w, at := p/64, p%64
		b.bits[w] |= uint64(x) << at
		if at > 56 && x>>(64-at) != 0 {
			b.bits[w+1] |= uint64(x) >> (64 - at)
		}
	}
	return nil
}

// decodeRef decodes one id reference against d and returns the batch ref
// of its id: a slot's ref from d's refs column when this epoch has met it,
// else a new one; an id the full dictionary does not remember, through
// the batch's own index. An intro's id is spelled as names spells it, or
// in full when names is nil.
func (x *batchIDs) decodeRef(d *batchDict, epoch uint32, buf []byte, names Names) (uint32, []byte, error) {
	var slot uint64
	if len(buf) > 0 && buf[0] < 0x80 && int(buf[0]) < len(d.ids) { // a one-byte slot
		slot, buf = uint64(buf[0]), buf[1:]
	} else {
		v, rest, err := columnUvarint(buf)
		if err != nil {
			return 0, nil, err
		}
		buf = rest
		if n := uint64(len(d.ids)); v > n {
			return 0, nil, fmt.Errorf("%w: id slot %d of %d", ErrCorruptRecord, v, n)
		} else if v < n {
			slot = v
		} else {
			id, rest, err := readIntro(buf, names)
			if err != nil {
				return 0, nil, err
			}
			if _, known := d.slot[id]; known {
				return 0, nil, fmt.Errorf("%w: id %q introduced twice", ErrCorruptRecord, id)
			}
			buf = rest
			if !d.remember(id) {
				return x.ref(id), buf, nil
			}
			slot = n
		}
	}
	if e := d.refs[slot]; uint32(e>>32) == epoch {
		return uint32(e), buf, nil
	}
	r := uint32(len(x.ids))
	x.ids = append(x.ids, d.ids[slot])
	d.refs[slot] = uint64(epoch)<<32 | uint64(r)
	return r, buf, nil
}

// readIntro reads the id an intro introduces: its length and bytes, or
// names' spelling of it. Either way it is 1 to maxEntityLen bytes.
func readIntro(buf []byte, names Names) (EntityID, []byte, error) {
	if names != nil {
		id, rest, err := names.ReadName(buf)
		if err == nil && (id == "" || len(id) > maxEntityLen) {
			err = fmt.Errorf("%w: id of %d bytes", ErrCorruptRecord, len(id))
		}
		return id, rest, err
	}
	size, rest, err := columnUvarint(buf)
	if err != nil {
		return "", nil, err
	}
	if size == 0 || size > maxEntityLen || size > uint64(len(rest)) {
		return "", nil, fmt.Errorf("%w: id of %d bytes, %d left", ErrCorruptRecord, size, len(rest))
	}
	return EntityID(rest[:size]), rest[size:], nil
}
