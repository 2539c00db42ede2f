// Binary payload codecs for protocol v2 frames.
//
// Every payload has a hand-rolled binary encoding (big-endian fixed-width
// scalars, uvarint counts, length-prefixed strings, names through the
// connection's name table); a list of records — submit.batch,
// fwd.submit.batch, history.resp, gossip.summary.resp — is one feedback
// record batch (ADR 0008). A payload the binary form refuses rides the frame
// as JSON bytes with the flagJSONPayload bit set.
//
// Encodings are strict on decode: trailing bytes, oversized counts,
// non-shortest varints, unknown flag bits and truncated fields all fail with
// ErrBadMessage — the decoder never trusts a count further than the bytes
// backing it (every count is bounded by its element's smallest encoding, and
// by the protocol's batch caps, before anything is allocated).
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/store"
)

// encodeBinary sets env's payload to the binary encoding of payload, headed
// by the sections the frame plans against dir, the direction it crosses, and
// sets the sections' flags and the frame's plan. It reports whether the
// payload has a binary codec at all; callers fall back to JSON payload bytes
// when it does not.
func encodeBinary(env *Envelope, payload any, dir *side) (ok bool, err error) {
	d := getFrameDict(dir)
	defer d.put()
	at := len(env.Payload)
	buf, ok, err := appendPayload(env.Payload, payload, d)
	d.head(env, buf, at)
	return ok, err
}

// appendPayload is encodeBinary past the sections that head the payload, in
// the frame's dictionaries d.
func appendPayload(buf []byte, payload any, d *frameDict) ([]byte, bool, error) {
	switch p := payload.(type) {
	case SubmitRequest:
		b, err := d.appendRecord(buf, p.Feedback)
		return b, true, err
	case *SubmitRequest:
		b, err := d.appendRecord(buf, p.Feedback)
		return b, true, err
	case SubmitResponse:
		return appendBool(buf, p.Stored), true, nil
	case *SubmitResponse:
		return appendBool(buf, p.Stored), true, nil
	case BatchRequest:
		b, err := appendRecords(buf, p.Records, d)
		return b, true, err
	case *BatchRequest:
		b, err := appendRecords(buf, p.Records, d)
		return b, true, err
	case BatchResponse:
		b, err := appendBatchResponse(buf, p)
		return b, true, err
	case *BatchResponse:
		b, err := appendBatchResponse(buf, *p)
		return b, true, err
	case HistoryRequest:
		return appendHistoryRequest(buf, p, d), true, nil
	case *HistoryRequest:
		return appendHistoryRequest(buf, *p, d), true, nil
	case HistoryResponse:
		b, err := appendHistoryResponse(buf, p, d)
		return b, true, err
	case *HistoryResponse:
		b, err := appendHistoryResponse(buf, *p, d)
		return b, true, err
	case AssessRequest:
		return appendAssessRequest(buf, p, d), true, nil
	case *AssessRequest:
		return appendAssessRequest(buf, *p, d), true, nil
	case AssessResponse:
		return appendAssessResponse(buf, p, "", d), true, nil
	case *AssessResponse:
		return appendAssessResponse(buf, *p, "", d), true, nil
	case AssessBatchRequest:
		return appendAssessBatchRequest(buf, p, d), true, nil
	case *AssessBatchRequest:
		return appendAssessBatchRequest(buf, *p, d), true, nil
	case AssessBatchResponse:
		return appendAssessItems(buf, p.Items, d), true, nil
	case *AssessBatchResponse:
		return appendAssessItems(buf, p.Items, d), true, nil
	case ErrorResponse:
		return appendErrorResponse(buf, p), true, nil
	case *ErrorResponse:
		return appendErrorResponse(buf, *p), true, nil
	case FwdBatchRequest:
		b, err := appendFwdBatchRequest(buf, p, d)
		return b, true, err
	case *FwdBatchRequest:
		b, err := appendFwdBatchRequest(buf, *p, d)
		return b, true, err
	case FwdAssessBatchRequest:
		return appendFwdAssessBatchRequest(buf, p, d), true, nil
	case *FwdAssessBatchRequest:
		return appendFwdAssessBatchRequest(buf, *p, d), true, nil
	case FwdAssessBatchResponse:
		return appendAssessItems(appendString(buf, p.Node), p.Items, d), true, nil
	case *FwdAssessBatchResponse:
		return appendAssessItems(appendString(buf, p.Node), p.Items, d), true, nil
	case SummaryMsg:
		return appendSummary(buf, p, d), true, nil
	case SummaryResp:
		buf = binary.AppendUvarint(buf, uint64(len(p.Stale)))
		for _, srv := range p.Stale {
			buf = d.appendName(buf, srv)
		}
		b, err := appendRecordBatch(buf, p.Records, d)
		return b, true, err
	}
	return buf, false, nil
}

// decodeBinary decodes env's binary payload into out, which must be a
// pointer to the payload struct matching the frame type: on st, the
// connection end whose reader committed the frame, past the sections the
// commit read, its keyed rows, mirrored chains and name refs reading the
// tables as the frames up to its own left them. The whole buffer must be
// consumed; anything else is a protocol violation, and breaks st.
func decodeBinary(env Envelope, out any, st *connState) error {
	t := env.Type
	r := &breader{buf: env.Payload}
	defer r.release()
	err := st.usable()
	if err == nil {
		err = r.head(env, st)
	}
	if err == nil {
		switch o := out.(type) {
		case *SubmitRequest:
			o.Feedback, err = r.record()
		case *SubmitResponse:
			o.Stored, err = r.bool()
		case *BatchRequest:
			o.Records, err = r.records()
		case *BatchView:
			err = r.recordBatch(&o.Records)
		case *BatchResponse:
			err = r.batchResponse(o)
		case *HistoryRequest:
			err = r.historyRequest(o)
		case *HistoryResponse:
			err = r.historyResponse(o)
		case *AssessRequest:
			err = r.assessRequest(o)
		case *AssessResponse:
			err = r.assessResponse(o, "")
		case *AssessBatchRequest:
			err = r.assessBatchRequest(o)
		case *AssessBatchResponse:
			err = r.assessBatchResponse(o)
		case *ErrorResponse:
			err = r.errorResponse(o)
		case *FwdBatchRequest:
			err = r.fwdBatchRequest(o)
		case *FwdAssessBatchRequest:
			err = r.fwdAssessBatchRequest(o)
		case *FwdAssessBatchResponse:
			err = r.fwdAssessBatchResponse(o)
		case *SummaryMsg:
			err = r.summary(o)
		case *SummaryResp:
			err = r.summaryResp(o)
		default:
			return fmt.Errorf("%w: no binary codec for %T (%s payload)", ErrBadMessage, out, t)
		}
	}
	if err == nil {
		err = r.dict.unread()
	}
	if err == nil && len(r.buf) != 0 {
		err = fmt.Errorf("%d trailing bytes", len(r.buf))
	}
	if err != nil {
		return st.refuse(fmt.Errorf("%w: %s payload: %v", ErrBadMessage, t, err))
	}
	return nil
}

// Append helpers.

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(f))
}

// frameDicts recycles the storage of frame-scoped dictionaries. What crosses
// from one frame to the next is a cleared map and an empty slice, never an
// id: Reset runs before a BatchDicts goes back.
var frameDicts = sync.Pool{New: func() any { return new(feedback.BatchDicts) }}

// appendRecords appends recs as one record batch (feedback.AppendBatch) whose
// id dictionaries live and die with the frame, its intros spelled as fd, the
// frame's dictionaries, spells names. The batch ends a payload: its last
// column has no length of its own.
func appendRecords(buf []byte, recs []feedback.Feedback, fd *frameDict) ([]byte, error) {
	d := fd.batchDicts()
	buf, err := feedback.AppendBatch(slices.Grow(buf, batchBytes(len(recs))), recs, d)
	d.Reset()
	frameDicts.Put(d)
	return buf, err
}

// appendRecordBatch is appendRecords for a batch: the same bytes for the
// same records.
func appendRecordBatch(buf []byte, rb RecordBatch, fd *frameDict) ([]byte, error) {
	if rb.Invalid != nil {
		return buf, fmt.Errorf("%w: a record batch with invalid records", ErrBadMessage)
	}
	var bs []*feedback.Batch
	if rb.Batch != nil {
		bs = append(bs, rb.Batch)
	}
	d := fd.batchDicts()
	buf = feedback.AppendBatches(slices.Grow(buf, batchBytes(rb.Len())), d, bs...)
	d.Reset()
	frameDicts.Put(d)
	return buf, nil
}

// batchDicts returns the id dictionaries of a record batch of the frame
// whose dictionaries d are, its intros spelled as the frame spells names;
// Reset and put back in frameDicts when the batch is done.
func (d *frameDict) batchDicts() *feedback.BatchDicts {
	bd := frameDicts.Get().(*feedback.BatchDicts)
	bd.Names = d
	return bd
}

// appendRecord writes one record: its time, its rating and its ids as
// names.
func (d *frameDict) appendRecord(buf []byte, f feedback.Feedback) ([]byte, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(f.Time.UnixNano()))
	buf = append(buf, byte(f.Rating))
	buf = d.appendName(buf, string(f.Server))
	return d.appendName(buf, string(f.Client)), nil
}

// batchBytes is room for a record batch of n records in one allocation,
// most of the time: a few bytes a record and some ids in full.
func batchBytes(n int) int { return 6*n + 128 }

// Submit-batch item kind bytes: a stored record and a duplicate need no
// body at all, so the common all-stored response encodes one byte per item.
const (
	submitItemStored    byte = 0
	submitItemDuplicate byte = 1
	submitItemError     byte = 2
)

// appendBatchResponse writes p's items, from which the receiver derives its
// totals (NewBatchResponse); it refuses a p whose totals are not its items',
// which the wire could not carry.
func appendBatchResponse(buf []byte, p BatchResponse) ([]byte, error) {
	if !p.derived() {
		return buf, fmt.Errorf("%w: submit.batch.resp totals disagree with its %d items", ErrBadMessage, len(p.Items))
	}
	buf = binary.AppendUvarint(slices.Grow(buf, len(p.Items)+binary.MaxVarintLen64), uint64(len(p.Items)))
	for _, item := range p.Items {
		switch {
		case item.Error != nil:
			buf = append(buf, submitItemError)
			buf = appendErrorResponse(buf, *item.Error)
		case item.Stored:
			buf = append(buf, submitItemStored)
		default:
			buf = append(buf, submitItemDuplicate)
		}
	}
	return buf, nil
}

func appendHistoryRequest(buf []byte, p HistoryRequest, d *frameDict) []byte {
	buf = d.appendName(buf, string(p.Server))
	limit := p.Limit
	if limit < 0 {
		limit = 0
	}
	return binary.AppendUvarint(buf, uint64(limit))
}

func appendHistoryResponse(buf []byte, p HistoryResponse, d *frameDict) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(p.Total))
	return appendRecords(buf, p.Records, d)
}

func appendAssessRequest(buf []byte, p AssessRequest, d *frameDict) []byte {
	buf = d.appendName(buf, string(p.Server))
	return appendFloat(buf, p.Threshold)
}

// Assessment / AssessResponse flag bits. An AssessResponse's flags byte has
// two bits; revisions 4 to 10 also had a cached and an incremental bit
// (1 << 1 and 1 << 2), which revisions 11 to 13 refuse.
const (
	assessFlagAccept byte = 1 << 0
	// assessFlagMirrored: the assessment's Records and Good are its mirror
	// row's bits — how many, how many good — and ride as nothing; its
	// verdict is the chain that reads that row (mirror.go).
	assessFlagMirrored byte = 1 << 1

	asmtFlagSuspicious   byte = 1 << 0
	asmtFlagShortHistory byte = 1 << 1
	asmtFlagVerdict      byte = 1 << 2
	asmtFlagHonest       byte = 1 << 3
	// asmtFlagServer: the assessed server is not the enclosing batch item's
	// and rides explicitly. A batch item names its server once.
	asmtFlagServer byte = 1 << 4
	// asmtFlagNames: Tester and TrustFunc ride as two names. Without it
	// they are the names the frame's previous assessment carried.
	asmtFlagNames byte = 1 << 5
	// asmtFlagTrust and asmtFlagBounds: Trust, and TrustLow with TrustHigh,
	// ride as raw bits because they are not what the counts derive.
	asmtFlagTrust  byte = 1 << 6
	asmtFlagBounds byte = 1 << 7
)

// derivedTrust is the Trust, TrustLow and TrustHigh an assessment of good
// out of records carries when the average trust function judged it: g/n
// and core.TrustInterval, or zeros for a suspicious server or no records.
func derivedTrust(suspicious bool, records, good int) (trust, lo, hi float64) {
	if suspicious || records <= 0 {
		return 0, 0, 0
	}
	lo, hi, err := core.TrustInterval(good, records)
	if err != nil {
		return 0, 0, 0
	}
	return float64(good) / float64(records), lo, hi
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// appendAssessment encodes a inside an item that already named the server
// item ("" outside a batch), its thresholds and names in the frame's
// dictionaries d. The header is the counts the assessment was computed
// over (ADR 0006):
//
//	flags     byte: asmtFlag*
//	server    name, with asmtFlagServer
//	records   uvarint Records, unless assessFlagMirrored
//	good      uvarint Good, at most Records, unless assessFlagMirrored
//	trust     8 B, with asmtFlagTrust: a Trust that is not derivedTrust's
//	bounds    2 × 8 B, with asmtFlagBounds: TrustLow and TrustHigh, when
//	          either is not derivedTrust's
//	names     two names, with asmtFlagNames: Tester and TrustFunc, when
//	          the frame's previous assessment carried others or there is
//	          none
//	verdict   the verdict table, with asmtFlagVerdict
func appendAssessment(buf []byte, a core.Assessment, item feedback.EntityID, d *frameDict) []byte {
	trust, lo, hi := derivedTrust(a.Suspicious, a.Records, a.Good)
	rawTrust := !sameFloat(a.Trust, trust)
	rawBounds := !sameFloat(a.TrustLow, lo) || !sameFloat(a.TrustHigh, hi)
	named := !d.sameNames(a.Tester, a.TrustFunc)
	var flags byte
	if a.Suspicious {
		flags |= asmtFlagSuspicious
	}
	if a.ShortHistory {
		flags |= asmtFlagShortHistory
	}
	if a.Server != item {
		flags |= asmtFlagServer
	}
	hasVerdict := a.Verdict.Honest || len(a.Verdict.Suffixes) > 0
	if hasVerdict {
		flags |= asmtFlagVerdict
		if a.Verdict.Honest {
			flags |= asmtFlagHonest
		}
	}
	if named {
		flags |= asmtFlagNames
	}
	if rawTrust {
		flags |= asmtFlagTrust
	}
	if rawBounds {
		flags |= asmtFlagBounds
	}
	buf = append(buf, flags)
	if a.Server != item {
		buf = d.appendName(buf, string(a.Server))
	}
	d.counts[0] = len(buf)
	buf = binary.AppendUvarint(buf, uint64(a.Records))
	buf = binary.AppendUvarint(buf, uint64(a.Good))
	d.counts[1] = len(buf)
	if rawTrust {
		buf = appendFloat(buf, a.Trust)
	}
	if rawBounds {
		buf = appendFloat(buf, a.TrustLow)
		buf = appendFloat(buf, a.TrustHigh)
	}
	if named {
		buf = d.appendName(buf, a.Tester)
		buf = d.appendName(buf, a.TrustFunc)
		d.name(a.Tester, a.TrustFunc)
	}
	if hasVerdict {
		buf = appendVerdictTable(buf, a.Verdict.Suffixes, d)
	}
	return buf
}

func appendAssessResponse(buf []byte, p AssessResponse, item feedback.EntityID, d *frameDict) []byte {
	var flags byte
	if p.Accept {
		flags |= assessFlagAccept
	}
	at, rows := len(buf), len(d.mirRows)
	buf = append(buf, flags)
	d.source(p.Judged)
	buf = appendAssessment(buf, p.Assessment, item, d)
	if len(d.mirRows) > rows && mirrorCounts(p.Assessment, d.src) {
		buf[at] |= assessFlagMirrored
		buf = append(buf[:d.counts[0]], buf[d.counts[1]:]...)
	}
	d.src = nil
	return buf
}

// mirrorCounts reports whether a's Records and Good are how many of src's
// bits there are and how many are good.
func mirrorCounts(a core.Assessment, src goodSource) bool {
	return a.Records == src.Len() && a.Good == src.GoodInRange(0, a.Records)
}

func appendAssessBatchRequest(buf []byte, p AssessBatchRequest, d *frameDict) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Servers)))
	for _, s := range p.Servers {
		buf = d.appendName(buf, string(s))
	}
	return appendFloat(buf, p.Threshold)
}

// appendAssessItems encodes the items of an assess.batch.resp or a
// fwd.assess.batch.resp, whose assessments share the frame's dictionaries.
func appendAssessItems(buf []byte, items []AssessBatchItem, d *frameDict) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, item := range items {
		buf = d.appendName(buf, string(item.Server))
		if item.Error != nil {
			buf = append(buf, 1)
			buf = appendErrorResponse(buf, *item.Error)
		} else {
			buf = append(buf, 0)
			buf = appendAssessResponse(buf, item.AssessResponse, item.Server, d)
		}
	}
	return buf
}

func appendErrorResponse(buf []byte, p ErrorResponse) []byte {
	buf = appendString(buf, p.Code)
	return appendString(buf, p.Message)
}

// Forwarded-call payloads (cluster node-to-node frames). The assess pair
// matters most: its response carries a full per-suffix verdict table per
// item — thousands of entries at long histories — and forwarding it as JSON
// would put an encode+decode of those tables on every cross-node read.

func appendFwdBatchRequest(buf []byte, p FwdBatchRequest, d *frameDict) ([]byte, error) {
	buf = appendString(buf, p.Node)
	buf = appendBool(buf, p.Replica)
	return appendRecordBatch(buf, p.Records, d)
}

func appendFwdAssessBatchRequest(buf []byte, p FwdAssessBatchRequest, d *frameDict) []byte {
	buf = appendString(buf, p.Node)
	return appendAssessBatchRequest(buf, AssessBatchRequest{Servers: p.Servers, Threshold: p.Threshold}, d)
}

// Anti-entropy payloads (ADR 0022). A summary is its node, then each
// server's name and checksum in ascending name order — a string, a uvarint
// n, and n × (name, uvarint Count, 8 B XOR) — and its answer the stale
// servers, ascending — a uvarint n and n names — and one record batch.

func appendSummary(buf []byte, p SummaryMsg, d *frameDict) []byte {
	buf = appendString(buf, p.Node)
	servers := make([]string, 0, len(p.Servers))
	for srv := range p.Servers {
		servers = append(servers, srv)
	}
	slices.Sort(servers)
	buf = binary.AppendUvarint(buf, uint64(len(servers)))
	for _, srv := range servers {
		sum := p.Servers[srv]
		buf = d.appendName(buf, srv)
		buf = binary.AppendUvarint(buf, uint64(sum.Count))
		buf = binary.BigEndian.AppendUint64(buf, sum.XOR)
	}
	return buf
}

// breader is a strict cursor over a binary payload: every read checks the
// remaining length, and uvarint-borne counts are sanity-checked against the
// bytes left so a corrupt frame can never force a large allocation.
type breader struct {
	buf  []byte
	rows int        // verdict rows decoded so far, against maxFrameRows
	dict *frameDict // the frame's dictionaries, taken with the frame's head
}

// release returns the frame's dictionaries, whose frame has ended.
func (r *breader) release() {
	if r.dict != nil {
		r.dict.put()
	}
}

func (r *breader) bool() (bool, error) {
	if len(r.buf) < 1 {
		return false, fmt.Errorf("short bool")
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	if b > 1 {
		return false, fmt.Errorf("bool byte %d", b)
	}
	return b == 1, nil
}

func (r *breader) byte() (byte, error) {
	if len(r.buf) < 1 {
		return 0, fmt.Errorf("short byte")
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

// uvarint reads one uvarint in its shortest form, the only one an encoder
// writes.
func (r *breader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || n > 1 && r.buf[n-1] == 0 {
		return 0, fmt.Errorf("bad uvarint")
	}
	r.buf = r.buf[n:]
	return v, nil
}

// count reads a collection count and rejects any value the remaining bytes
// could not back at elemMin bytes — the element's smallest encoding — each,
// so what a caller allocates for the count stays proportional to the frame.
func (r *breader) count(elemMin int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.buf)/elemMin) {
		return 0, fmt.Errorf("count %d exceeds %d remaining bytes at %d each", v, len(r.buf), elemMin)
	}
	return int(v), nil
}

// batchCount is count for a collection the protocol caps.
func (r *breader) batchCount(elemMin, most int) (int, error) {
	n, err := r.count(elemMin)
	if err == nil && n > most {
		err = fmt.Errorf("count %d exceeds the protocol's cap of %d", n, most)
	}
	return n, err
}

func (r *breader) int() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("int %d out of range", v)
	}
	return int(v), nil
}

func (r *breader) float() (float64, error) {
	if len(r.buf) < 8 {
		return 0, fmt.Errorf("short float")
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v, nil
}

func (r *breader) string() (string, error) {
	n, err := r.count(1)
	if err != nil {
		return "", err
	}
	s := string(r.buf[:n])
	r.buf = r.buf[n:]
	return s, nil
}

// record reads what appendRecord wrote.
func (r *breader) record() (feedback.Feedback, error) {
	var f feedback.Feedback
	if len(r.buf) < 8+1 {
		return f, fmt.Errorf("short record")
	}
	f.Time = time.Unix(0, int64(binary.BigEndian.Uint64(r.buf))).UTC()
	f.Rating = feedback.Rating(r.buf[8])
	r.buf = r.buf[9:]
	server, err := r.name()
	if err != nil {
		return f, err
	}
	client, err := r.name()
	if err != nil {
		return f, err
	}
	f.Server, f.Client = feedback.EntityID(server), feedback.EntityID(client)
	if err := f.Validate(); err != nil {
		return f, fmt.Errorf("%w: %v", feedback.ErrCorruptRecord, err)
	}
	return f, nil
}

// records decodes the record batch that is the rest of the payload; the
// codec bounds its count by the bytes behind it.
func (r *breader) records() ([]feedback.Feedback, error) {
	d := r.dict.batchDicts()
	recs, err := feedback.DecodeBatch(r.buf, d, nil)
	d.Reset()
	frameDicts.Put(d)
	r.buf = nil
	return recs, err
}

// recordBatch decodes the record batch that is the rest of the payload
// into a batch of its own.
func (r *breader) recordBatch(o *RecordBatch) error {
	d := r.dict.batchDicts()
	b := new(feedback.Batch)
	err := b.Decode(r.buf, d)
	d.Reset()
	frameDicts.Put(d)
	r.buf = nil
	o.Batch, o.Invalid = b, nil
	return err
}

func (r *breader) batchResponse(o *BatchResponse) error {
	n, err := r.batchCount(1, MaxSubmitBatch) // a kind byte
	if err != nil || n == 0 {
		return err
	}
	items := make([]SubmitBatchItem, n)
	for i := range items {
		kind, err := r.byte()
		if err != nil {
			return err
		}
		switch kind {
		case submitItemStored:
			items[i].Stored = true
		case submitItemDuplicate:
		case submitItemError:
			items[i].Error = new(ErrorResponse)
			if err := r.errorResponse(items[i].Error); err != nil {
				return err
			}
		default:
			return fmt.Errorf("item %d: kind byte %d", i, kind)
		}
	}
	*o = NewBatchResponse(items)
	return nil
}

func (r *breader) historyRequest(o *HistoryRequest) error {
	s, err := r.name()
	if err != nil {
		return err
	}
	o.Server = feedback.EntityID(s)
	o.Limit, err = r.int()
	return err
}

func (r *breader) historyResponse(o *HistoryResponse) error {
	var err error
	if o.Total, err = r.int(); err != nil {
		return err
	}
	o.Records, err = r.records()
	return err
}

func (r *breader) assessRequest(o *AssessRequest) error {
	s, err := r.name()
	if err != nil {
		return err
	}
	o.Server = feedback.EntityID(s)
	o.Threshold, err = r.float()
	return err
}

// assessment decodes what appendAssessment wrote inside an item naming the
// server item ("" outside a batch), its Records and Good src's bits when
// the response's flags say so (src non-nil).
func (r *breader) assessment(o *core.Assessment, item feedback.EntityID, src goodSource) error {
	flags, err := r.byte()
	if err != nil {
		return err
	}
	if flags&(asmtFlagVerdict|asmtFlagHonest) == asmtFlagHonest {
		return fmt.Errorf("assessment flags %#x", flags)
	}
	o.Suspicious = flags&asmtFlagSuspicious != 0
	o.ShortHistory = flags&asmtFlagShortHistory != 0
	o.Server = item
	if flags&asmtFlagServer != 0 {
		s, err := r.name()
		if err != nil {
			return err
		}
		if o.Server = feedback.EntityID(s); o.Server == item {
			return fmt.Errorf("assessment repeats its item's server")
		}
	}
	if src != nil {
		o.Records = src.Len()
		o.Good = src.GoodInRange(0, o.Records)
	} else if o.Records, err = r.int(); err != nil {
		return err
	} else if o.Good, err = r.int(); err != nil {
		return err
	}
	if o.Good > o.Records {
		return fmt.Errorf("assessment of %d good records out of %d", o.Good, o.Records)
	}
	trust, lo, hi := derivedTrust(o.Suspicious, o.Records, o.Good)
	o.Trust, o.TrustLow, o.TrustHigh = trust, lo, hi
	if flags&asmtFlagTrust != 0 {
		if o.Trust, err = r.float(); err != nil {
			return err
		}
		if sameFloat(o.Trust, trust) {
			return fmt.Errorf("raw trust %v derives from its counts", o.Trust)
		}
	}
	if flags&asmtFlagBounds != 0 {
		if o.TrustLow, err = r.float(); err != nil {
			return err
		}
		if o.TrustHigh, err = r.float(); err != nil {
			return err
		}
		if sameFloat(o.TrustLow, lo) && sameFloat(o.TrustHigh, hi) {
			return fmt.Errorf("raw trust interval [%v, %v] derives from its counts", lo, hi)
		}
	}
	d := r.dict
	if flags&asmtFlagNames != 0 {
		if o.Tester, err = r.name(); err != nil {
			return err
		}
		if o.TrustFunc, err = r.name(); err != nil {
			return err
		}
		if d.sameNames(o.Tester, o.TrustFunc) {
			return fmt.Errorf("names %q, %q repeat the previous assessment's", o.Tester, o.TrustFunc)
		}
		d.name(o.Tester, o.TrustFunc)
	} else if !d.named {
		return fmt.Errorf("assessment refers to the names of none before it")
	}
	o.Tester, o.TrustFunc = d.tester, d.trustFunc
	o.Verdict = behavior.Verdict{Honest: flags&asmtFlagHonest != 0}
	if flags&asmtFlagVerdict == 0 {
		return nil
	}
	if o.Verdict.Suffixes, err = r.verdictTable(); err != nil {
		return err
	}
	if !o.Verdict.Honest && o.Verdict.Suffixes == nil {
		return fmt.Errorf("verdict flag on an empty verdict")
	}
	return nil
}

func (r *breader) assessResponse(o *AssessResponse, item feedback.EntityID) error {
	flags, err := r.byte()
	if err != nil {
		return err
	}
	if flags&^(assessFlagAccept|assessFlagMirrored) != 0 {
		return fmt.Errorf("assess response flags %#x", flags)
	}
	o.Accept = flags&assessFlagAccept != 0
	d := r.dict
	views, row := d.read.views, d.nViews // the mirror row the assessment's chain reads, if any
	var src goodSource
	if flags&assessFlagMirrored != 0 {
		if row == len(views) {
			return fmt.Errorf("mirrored counts with no mirror row")
		}
		src = &views[row]
	}
	if err := r.assessment(&o.Assessment, item, src); err != nil {
		return err
	}
	// The counts derive from the row exactly when the chain reads it and
	// they are its bits'.
	read := d.nViews > row && mirrorCounts(o.Assessment, &views[row])
	if read != (src != nil) {
		return fmt.Errorf("assessment counts %d/%d written %v, where the encoder writes them %v", o.Assessment.Good, o.Assessment.Records, src == nil, !read)
	}
	return nil
}

func (r *breader) assessBatchRequest(o *AssessBatchRequest) error {
	n, err := r.batchCount(1, MaxAssessBatch)
	if err != nil {
		return err
	}
	o.Servers = make([]feedback.EntityID, n)
	for i := range o.Servers {
		s, err := r.name()
		if err != nil {
			return err
		}
		o.Servers[i] = feedback.EntityID(s)
	}
	o.Threshold, err = r.float()
	return err
}

func (r *breader) assessBatchResponse(o *AssessBatchResponse) error {
	// The smallest item is an error slot: an empty server, the kind byte and
	// two empty strings.
	n, err := r.batchCount(4, MaxAssessBatch)
	if err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	o.Items = make([]AssessBatchItem, n)
	for i := range o.Items {
		item := &o.Items[i]
		s, err := r.name()
		if err != nil {
			return err
		}
		item.Server = feedback.EntityID(s)
		kind, err := r.byte()
		if err != nil {
			return err
		}
		switch kind {
		case 0:
			if err := r.assessResponse(&item.AssessResponse, item.Server); err != nil {
				return err
			}
		case 1:
			item.Error = new(ErrorResponse)
			if err := r.errorResponse(item.Error); err != nil {
				return err
			}
		default:
			return fmt.Errorf("item %d: kind byte %d", i, kind)
		}
	}
	return nil
}

func (r *breader) errorResponse(o *ErrorResponse) error {
	var err error
	if o.Code, err = r.string(); err != nil {
		return err
	}
	o.Message, err = r.string()
	return err
}

func (r *breader) fwdBatchRequest(o *FwdBatchRequest) error {
	var err error
	if o.Node, err = r.string(); err != nil {
		return err
	}
	if o.Replica, err = r.bool(); err != nil {
		return err
	}
	return r.recordBatch(&o.Records)
}

func (r *breader) fwdAssessBatchRequest(o *FwdAssessBatchRequest) error {
	var err error
	if o.Node, err = r.string(); err != nil {
		return err
	}
	var inner AssessBatchRequest
	if err := r.assessBatchRequest(&inner); err != nil {
		return err
	}
	o.Servers, o.Threshold = inner.Servers, inner.Threshold
	return nil
}

// nameAfter reads a name of a summary's servers or a stale list, which
// ascend strictly as an encoder writes them: the i-th, after prev.
func (r *breader) nameAfter(prev string, i int) (string, error) {
	s, err := r.name()
	if err == nil && i > 0 && s <= prev {
		err = fmt.Errorf("server %q after %q", s, prev)
	}
	return s, err
}

func (r *breader) summary(o *SummaryMsg) error {
	var err error
	if o.Node, err = r.string(); err != nil {
		return err
	}
	n, err := r.count(1 + 1 + 8) // a ref, a count and the XOR
	if err != nil {
		return err
	}
	o.Servers = make(map[string]store.Checksum, n)
	srv := ""
	for i := range n {
		if srv, err = r.nameAfter(srv, i); err != nil {
			return err
		}
		var sum store.Checksum
		if sum.Count, err = r.int(); err != nil {
			return err
		}
		if len(r.buf) < 8 {
			return fmt.Errorf("short checksum")
		}
		sum.XOR = binary.BigEndian.Uint64(r.buf)
		r.buf = r.buf[8:]
		o.Servers[srv] = sum
	}
	return nil
}

func (r *breader) summaryResp(o *SummaryResp) error {
	n, err := r.count(1) // a ref
	if err != nil {
		return err
	}
	o.Stale = make([]string, n)
	for i := range o.Stale {
		if o.Stale[i], err = r.nameAfter(o.Stale[max(i-1, 0)], i); err != nil {
			return err
		}
	}
	return r.recordBatch(&o.Records)
}

func (r *breader) fwdAssessBatchResponse(o *FwdAssessBatchResponse) error {
	var err error
	if o.Node, err = r.string(); err != nil {
		return err
	}
	var inner AssessBatchResponse
	if err := r.assessBatchResponse(&inner); err != nil {
		return err
	}
	o.Items = inner.Items
	return nil
}
