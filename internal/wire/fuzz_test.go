package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

// FuzzRead drives a bridged connection's read path — the frame reader, the
// refusal of binary payloads, the JSON payload decoders — over arbitrary
// bytes: no panic, no binary payload handed on, and whatever a JSON payload
// decodes to crosses the bridge again.
func FuzzRead(f *testing.F) {
	addFrame := func(t MsgType, payload any) {
		env, err := BridgeCodec.Encode(t, 1, payload)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteV2(&buf, env); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	addFrame(TypePing, nil)
	addFrame(TypeSubmitB, BatchRequest{Records: []feedback.Feedback{testRecord(1), testRecord(2)}})
	addFrame(TypeAssessR, AssessResponse{Assessment: testAssessment(), Accept: true})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, _, err := BridgeCodec.ReadFrame(bytes.NewReader(data), nil)
		if err != nil {
			return
		}
		if env.Binary {
			t.Fatalf("bridged reader handed on a binary %s payload", env.Type)
		}
		dest := fuzzPayloadDest(env.Type)
		if dest == nil || DecodePayload(env, dest) != nil {
			return
		}
		reenc, err := BridgeCodec.Encode(env.Type, env.ID, dest)
		if err != nil {
			t.Fatalf("re-encode of decoded %s payload failed: %v", env.Type, err)
		}
		if err := DecodePayload(reenc, fuzzPayloadDest(env.Type)); err != nil {
			t.Fatalf("re-decode of %s payload failed: %v", env.Type, err)
		}
	})
}

// fuzzPayloadDest returns a fresh decode destination for a frame type, nil
// for types whose payload has no binary codec.
func fuzzPayloadDest(t MsgType) any {
	switch t {
	case TypeSubmit:
		return new(SubmitRequest)
	case TypeSubmitR:
		return new(SubmitResponse)
	case TypeSubmitB:
		return new(BatchRequest)
	case TypeSubmitBR:
		return new(BatchResponse)
	case TypeHistory:
		return new(HistoryRequest)
	case TypeHistoryR:
		return new(HistoryResponse)
	case TypeAssess:
		return new(AssessRequest)
	case TypeAssessR:
		return new(AssessResponse)
	case TypeAssessB:
		return new(AssessBatchRequest)
	case TypeAssessBR:
		return new(AssessBatchResponse)
	case TypeError:
		return new(ErrorResponse)
	case TypeFwdBatch:
		return new(FwdBatchRequest)
	}
	return nil
}

// FuzzReadV2 ensures the binary frame reader and the per-type payload
// decoders never panic, never allocate past the frame limit, and re-encode
// decodable payloads losslessly.
func FuzzReadV2(f *testing.F) {
	addFrame := func(t MsgType, id uint64, payload any) {
		env, err := V2Codec.Encode(t, id, payload)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteV2(&buf, env); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	addFrame(TypePing, 1, nil)
	addFrame(TypeAssess, 7, AssessRequest{Server: "srv-a", Threshold: 0.9})
	addFrame(TypeAssessR, 7, AssessResponse{Assessment: testAssessment(), Accept: true})
	// The three carriers of a record batch (ADR 0008), ids repeating.
	recs := []feedback.Feedback{testRecord(1), testRecord(2), testRecord(5), testRecord(6)}
	addFrame(TypeSubmitB, 3, BatchRequest{Records: recs})
	addFrame(TypeFwdBatch, 4, FwdBatchRequest{Node: "n1", Records: packed(recs...), Replica: true})
	addFrame(TypeHistoryR, 5, HistoryResponse{Total: 9, Records: recs})
	addFrame(TypeError, 0, ErrorResponse{Code: CodeBadRequest, Message: "bad"})
	f.Add([]byte{0, 0, 0, 10, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte("\xff\xff\xff\xff"))
	f.Add([]byte("{\"v\":1,\"type\":\"ping\",\"id\":1}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ReadV2(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if env.Type == "" {
			t.Fatalf("accepted invalid v2 envelope: %+v", env)
		}
		if !env.Binary {
			return // JSON-flagged payloads are covered by FuzzRead's decoder
		}
		dest := fuzzPayloadDest(env.Type)
		if dest == nil {
			return
		}
		if err := DecodePayload(env, dest); err != nil {
			return
		}
		// Whatever decoded must survive a re-encode/decode round trip
		// without error — the codec may not accept values it cannot carry.
		reenc, err := V2Codec.Encode(env.Type, env.ID, dest)
		if err != nil {
			t.Fatalf("re-encode of decoded %s payload failed: %v", env.Type, err)
		}
		if reenc.Binary {
			dest2 := fuzzPayloadDest(env.Type)
			if err := DecodePayload(reenc, dest2); err != nil {
				t.Fatalf("re-decode of %s payload failed: %v", env.Type, err)
			}
		}
	})
}

// FuzzSubmitBatch drives the submit.batch payload codecs — BatchRequest on
// the way in, and BatchView, the node's decode of the same bytes, beside
// it; BatchResponse (aggregates, rejects, and the per-item slots) on the
// way out — over arbitrary payload bytes. Invariants: no panic, no
// out-of-bounds allocation from hostile counts (the codec carries any count;
// MaxSubmitBatch is the server's concern), and whatever decodes must survive
// a lossless re-encode/decode round trip.
func FuzzSubmitBatch(f *testing.F) {
	addPayload := func(typ MsgType, payload any) {
		env, err := V2Codec.Encode(typ, 1, payload)
		if err != nil {
			f.Fatal(err)
		}
		if !env.Binary {
			f.Fatalf("%s payload has no binary codec", typ)
		}
		f.Add(typ == TypeSubmitBR, []byte(env.Payload))
	}
	addPayload(TypeSubmitB, BatchRequest{})
	addPayload(TypeSubmitB, BatchRequest{Records: []feedback.Feedback{testRecord(1)}})
	addPayload(TypeSubmitB, BatchRequest{Records: []feedback.Feedback{
		testRecord(1), testRecord(2), testRecord(3), testRecord(5), // 1 and 5 share a client: a slot
	}})
	// Two records at 1 ns, time scale 1: a slot past the dictionary's end,
	// and an id introduced twice, each intro a literal name.
	f.Add(false, []byte{2, 2, 1, 0, 0, 0, 1, 's', 2, 0, 0, 1, 'c', 0, 0})
	f.Add(false, []byte{2, 2, 1, 0, 0, 0, 1, 's', 1, 0, 1, 's', 0, 0, 1, 'c', 0, 0})
	addPayload(TypeSubmitBR, NewBatchResponse([]SubmitBatchItem{{Stored: true}, {Stored: true}, {Stored: true}}))
	addPayload(TypeSubmitBR, NewBatchResponse([]SubmitBatchItem{
		{Stored: true},
		{Stored: false},
		{Error: &ErrorResponse{Code: CodeInvalidFeedback, Message: "zero time"}},
	}))
	addPayload(TypeSubmitBR, NewBatchResponse([]SubmitBatchItem{ // every record refused, one by its group's owner
		{Error: &ErrorResponse{Code: CodeUnavailable, Message: "owner n2 down"}},
		{Error: &ErrorResponse{Code: CodeInvalidFeedback, Message: ""}},
		{Error: &ErrorResponse{Code: CodeUnavailable, Message: "owner n2 down"}},
	}))
	f.Add(false, []byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(true, []byte{0x03, 0x00, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, isResp bool, data []byte) {
		typ := TypeSubmitB
		var dest any = new(BatchRequest)
		if isResp {
			typ = TypeSubmitBR
			dest = new(BatchResponse)
		}
		env := Envelope{Type: typ, ID: 1, Payload: data, Binary: true}
		err := DecodePayload(env, dest)
		if !isResp {
			// The node's view of the same bytes: the same records, or the
			// same refusal.
			var view BatchView
			verr := DecodePayload(env, &view)
			if (err == nil) != (verr == nil) {
				t.Fatalf("BatchRequest decode: %v, BatchView decode: %v", err, verr)
			}
			if err == nil && !reflect.DeepEqual(view.Records.Batch.Records(), append([]feedback.Feedback{}, dest.(*BatchRequest).Records...)) {
				t.Fatalf("BatchView decoded %v, BatchRequest %v", view.Records.Batch.Records(), dest.(*BatchRequest).Records)
			}
		}
		if err != nil {
			return
		}
		reenc, err := V2Codec.Encode(typ, 1, dest)
		if err != nil {
			t.Fatalf("re-encode of decoded %s payload failed: %v", typ, err)
		}
		if !isResp && !bytes.Equal(reenc.Payload, data) {
			// The record batch is canonical: one encoding per record list.
			t.Fatalf("accepted request is not what its records encode to:\n in: %x\nout: %x", data, reenc.Payload)
		}
		dest2 := fuzzPayloadDest(typ)
		if err := DecodePayload(reenc, dest2); err != nil {
			t.Fatalf("re-decode of %s payload failed: %v", typ, err)
		}
		if !reflect.DeepEqual(dest, dest2) {
			t.Fatalf("%s payload not lossless:\n first: %+v\nsecond: %+v", typ, dest, dest2)
		}
	})
}

// TestFuzzSeedsReachTheirChecks: each checked-in seed of a record batch or
// a request decodes in today's layout, or is refused by the check its name
// states, not by one before it.
func TestFuzzSeedsReachTheirChecks(t *testing.T) {
	seed := func(path string) (isResp bool, data []byte) {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", path))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			switch {
			case line == "bool(true)":
				isResp = true
			case strings.HasPrefix(line, "[]byte(") && strings.HasSuffix(line, ")"):
				s, err := strconv.Unquote(line[len("[]byte(") : len(line)-1])
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				data = []byte(s)
			}
		}
		return isResp, data
	}
	for name, dest := range map[string]any{"assess": new(AssessRequest), "submit": new(SubmitRequest), "submit-batch": new(BatchRequest)} {
		_, data := seed("FuzzReadV2/" + name)
		env, err := ReadV2(bytes.NewReader(data))
		if err == nil {
			err = DecodePayload(env, dest)
		}
		if err != nil {
			t.Errorf("FuzzReadV2/%s: %v", name, err)
		}
	}
	for name, refusal := range map[string]string{"seed_request_empty": "", "seed_request_small": "", "seed_request_id_twice": "introduced twice"} {
		isResp, data := seed("FuzzSubmitBatch/" + name)
		err := DecodePayload(Envelope{Type: TypeSubmitB, Payload: data, Binary: true}, new(BatchRequest))
		if isResp || (refusal == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), refusal) {
			t.Errorf("FuzzSubmitBatch/%s: %v, want a refusal naming %q", name, err, refusal)
		}
	}
}

// fuzzRows builds a verdict table from fuzz bytes, 28 per row: a control
// byte steers each field between what a tester writes (counts in step, PHat
// on the g/Transactions grid, thresholds in runs, Pass following from the
// floats, rows one window apart as in a chain) and arbitrary bit patterns,
// so the fuzzer reaches every mix of derived and explicit columns.
func fuzzRows(data []byte) []behavior.SuffixResult {
	var rows []behavior.SuffixResult
	var prev behavior.SuffixResult
	for ; len(data) >= 28; data = data[28:] {
		ctl := data[0]
		raw := func(at int) float64 { return math.Float64frombits(binary.BigEndian.Uint64(data[at:])) }
		s := behavior.SuffixResult{
			Transactions: prev.Transactions + int(int16(binary.BigEndian.Uint16(data[1:]))),
			Windows:      int(int8(data[3])),
			PHat:         raw(4),
			Distance:     raw(12),
			Threshold:    raw(20),
			Pass:         ctl&16 != 0,
		}
		if ctl&32 != 0 {
			s.Transactions = int(int64(binary.BigEndian.Uint64(data[4:])))
		}
		if ctl&1 != 0 {
			s.Windows = s.Transactions / 10
		}
		if ctl&2 != 0 && s.Transactions > 0 {
			s.PHat = float64(int(data[4])%(s.Transactions+1)) / float64(s.Transactions)
		}
		if ctl&4 != 0 {
			s.Threshold = prev.Threshold
		}
		if ctl&64 != 0 && prev.Windows > 1 && prev.Transactions == 10*prev.Windows {
			// One window shorter than prev, as Scheme 2's next suffix is.
			good := int(prev.PHat*float64(prev.Transactions)+0.5) - int(data[1])%11
			s.Windows = prev.Windows - 1
			s.Transactions = 10 * s.Windows
			s.PHat = float64(max(good, 0)) / float64(s.Transactions)
		}
		if ctl&8 != 0 {
			s.Pass = s.Distance <= s.Threshold
		}
		rows = append(rows, s)
		prev = s
	}
	return rows
}

// seedTables are real verdict tables for the fuzzers to start from: multi's
// and collusion-multi's over seeded honest histories of 200, 1000 and 5000
// records, multi's of which are chains, a chain of 16-transaction windows
// (counts past a nibble), and three that break a chain: a stride of two
// windows, Single's one row of 500 windows, and a multi table missing a row.
func seedTables(tb testing.TB) [][]behavior.SuffixResult {
	tb.Helper()
	cfg := behavior.Config{Calibrator: testCalibrator()}
	multi, err := behavior.NewMulti(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	collusion, err := behavior.NewCollusionMulti(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	wide := cfg
	wide.Stride = 2 * behavior.DefaultWindowSize
	stride2m, err := behavior.NewMulti(wide)
	if err != nil {
		tb.Fatal(err)
	}
	single, err := behavior.NewSingle(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	test := func(tester behavior.Tester, records int) []behavior.SuffixResult {
		v, err := tester.Test(honestHistory(tb, "srv", records, 0.93, int64(records)))
		if err != nil {
			tb.Fatal(err)
		}
		return v.Suffixes
	}
	var tables [][]behavior.SuffixResult
	for _, records := range []int{200, 1000, 5000} {
		tables = append(tables, test(multi, records), test(collusion, records))
	}
	skipped := test(multi, 1000)
	wide16 := chainRows(tb, 16, 4, 16, 15, 9, 16, 14, 16, 12, 16)
	return append(tables, wide16, test(stride2m, 1000), test(single, 5000), append(skipped[:40:40], skipped[41:]...))
}

// keyedSeedFrames is frames of tables that exercise the grid-key bindings:
// familywise tables of two lengths, the second binding keys the third meets
// under another threshold and so writing runs; one table twice, the second
// writing no threshold; and a chain past the calibrated windows, whose
// longest rows have no key.
func keyedSeedFrames(tb testing.TB) [][][]behavior.SuffixResult {
	tb.Helper()
	family, err := behavior.NewMulti(behavior.Config{Calibrator: testCalibrator(), FamilywiseCorrection: true})
	if err != nil {
		tb.Fatal(err)
	}
	var familywise [][]behavior.SuffixResult
	for i, n := range []int{200, 1000, 200} {
		v, err := family.Test(honestHistory(tb, "srv", n, 0.95, int64(i)))
		if err != nil {
			tb.Fatal(err)
		}
		familywise = append(familywise, v.Suffixes)
	}
	twice := chainRows(tb, 10, 4, 9, 10, 7, 10, 10, 8, 10)
	return [][][]behavior.SuffixResult{familywise, {twice, twice}, {allGood(stats.DefaultMaxCalibrationWindows + 4)}}
}

// FuzzVerdictTable drives the verdict-table codec from both ends. As bytes
// off the wire — a frame's binding section, then tables one after another,
// as a frame's items carry them, under one threshold dictionary: no panic,
// no more rows than the bytes could back, and every table accepted
// re-encodes to the bytes it came from, the section too once every table is
// and every binding read. As rows to send: whatever the floats and counts
// hold, the table that arrives has the same bits in every field.
func FuzzVerdictTable(f *testing.F) {
	frameOf := func(tables ...[]behavior.SuffixResult) (sec, frame []byte) {
		d := loneDict()
		defer d.put()
		for _, rows := range tables {
			frame = appendVerdictTable(frame, rows, d) // later tables refer to earlier literals and bindings
		}
		sec = d.appendBindings(nil, new(sections))
		return sec, frame
	}
	add := func(sec, frame []byte) { f.Add(sec, frame) }
	tables := seedTables(f)
	for _, rows := range tables {
		add(encodeTable(rows))
	}
	add(frameOf(tables...))
	for _, tables := range keyedSeedFrames(f) {
		add(frameOf(tables...))
	}
	add(encodeTable(testAssessment().Verdict.Suffixes))
	add(encodeTable([]behavior.SuffixResult{
		{Transactions: 7, Windows: 3, PHat: math.NaN(), Distance: math.Inf(1), Threshold: math.Copysign(0, -1), Pass: true},
	}))
	f.Add([]byte(nil), bytes.Repeat([]byte{0x0f, 0xff, 0xf6, 0, 7}, 40)) // rows in step, on the grid
	f.Add([]byte(nil), bytes.Repeat([]byte{0x20, 0x7f, 0xf8, 1}, 21))
	f.Add([]byte(nil), []byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0})
	f.Fuzz(func(t *testing.T, sec, data []byte) {
		r := loneReader(sec)
		defer r.release()
		if len(sec) > 0 && (r.bindingSection() != nil || len(r.buf) != 0) {
			return
		}
		r.buf = data
		d := loneDict()
		defer d.put()
		var again []byte
		accepted := true
		for len(r.buf) > 0 {
			at := len(data) - len(r.buf)
			rows, err := r.verdictTable()
			if accepted = err == nil; !accepted {
				break
			}
			used := data[at : len(data)-len(r.buf)]
			least := 80 // bits a row takes at least: 1 in a chain
			if _, k := binary.Uvarint(used); len(rows) > 0 && used[k]&tableChain != 0 {
				least = 1
			}
			if len(rows)*least > 8*len(used) {
				t.Fatalf("%d rows out of %d bytes", len(rows), len(used))
			}
			if again = appendVerdictTable(again, rows, d); !bytes.Equal(again, data[:len(data)-len(r.buf)]) {
				t.Fatalf("accepted %x, which encodes as %x", data[:len(data)-len(r.buf)], again)
			}
		}
		if accepted && r.dict.unread() == nil {
			if bound := d.appendBindings(nil, new(sections)); !bytes.Equal(bound, sec) {
				t.Fatalf("accepted the binding section %x, which encodes as %x", sec, bound)
			}
		}
		checkTable(t, fuzzRows(data))
	})
}

// FuzzAssessBatchResponse drives the two batch-response decoders — on a door
// node the second reads whatever a peer sends — over arbitrary payload bytes:
// no panic, never more items than the protocol's cap, and a payload is
// accepted only in the one form the encoder writes.
func FuzzAssessBatchResponse(f *testing.F) {
	for typ, payload := range v2Payloads() {
		if typ == TypeAssessBR || typ == TypeFwdAssessBR {
			env, err := V2Codec.Encode(typ, 1, payload)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(typ == TypeFwdAssessBR, env.Bindings, []byte(env.Payload))
		}
	}
	var all []AssessBatchItem // every table in one frame, sharing thresholds
	for i, rows := range seedTables(f) {
		a := testAssessment()
		a.Verdict.Suffixes = rows
		items := []AssessBatchItem{{Server: a.Server, AssessResponse: AssessResponse{Assessment: a}}}
		all = append(all, items...)
		var payload any = AssessBatchResponse{Items: items}
		if i%2 == 1 {
			payload = FwdAssessBatchResponse{Node: "n2", Items: items}
		}
		buf, bound, _, err := appendBinaryPayload(nil, payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(i%2 == 1, bound, buf)
	}
	for _, tables := range keyedSeedFrames(f) {
		var items []AssessBatchItem
		for i, rows := range tables {
			a := testAssessment()
			a.Server, a.Verdict.Suffixes = feedback.EntityID(fmt.Sprint("s", i)), rows
			items = append(items, AssessBatchItem{Server: a.Server, AssessResponse: AssessResponse{Assessment: a}})
		}
		buf, bound, _, err := appendBinaryPayload(nil, AssessBatchResponse{Items: items})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(false, bound, buf)
	}
	for _, payload := range []any{AssessBatchResponse{Items: all}, FwdAssessBatchResponse{Node: "n2", Items: all}} {
		buf, bound, _, err := appendBinaryPayload(nil, payload)
		if err != nil {
			f.Fatal(err)
		}
		_, fwd := payload.(FwdAssessBatchResponse)
		f.Add(fwd, bound, buf)
	}
	// Headers of every kind: a suspicious assessment, a weighted one whose
	// trust rides raw, one over no records whose floats all ride raw, and a
	// frame of them all in which names change and repeat.
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: testCalibrator()})
	if err != nil {
		f.Fatal(err)
	}
	weighted, err := trust.NewWeighted(0.9)
	if err != nil {
		f.Fatal(err)
	}
	periodic, err := attack.GenPeriodic("srv", 200, 10, 0.3, stats.NewRNG(7))
	if err != nil {
		f.Fatal(err)
	}
	var kinds []AssessBatchItem
	for _, tc := range []struct {
		fn trust.Func
		h  *feedback.History
	}{{trust.Average{}, periodic}, {weighted, honestHistory(f, "srv", 200, 0.93, 3)}, {trust.Average{}, honestHistory(f, "srv", 200, 0.95, 4)}} {
		tp, err := core.NewTwoPhase(multi, tc.fn)
		if err != nil {
			f.Fatal(err)
		}
		a, err := tp.Assess(tc.h)
		if err != nil {
			f.Fatal(err)
		}
		kinds = append(kinds, AssessBatchItem{Server: "srv", AssessResponse: AssessResponse{Assessment: a}})
	}
	noRecords := testAssessment()
	noRecords.Verdict = behavior.Verdict{}
	kinds = append(kinds, AssessBatchItem{Server: "srv", AssessResponse: AssessResponse{Assessment: noRecords}})
	for i := range kinds {
		buf, bound, _, err := appendBinaryPayload(nil, AssessBatchResponse{Items: kinds[i : i+1]})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(false, bound, buf)
	}
	buf, bound, _, err := appendBinaryPayload(nil, FwdAssessBatchResponse{Node: "n2", Items: slices.Concat(kinds, kinds)})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(true, bound, buf)
	f.Add(false, false, binary.AppendUvarint(nil, MaxFrame))
	f.Add(true, false, []byte{1, 'n', 0xff, 0x01, 0, 0})
	frames, bound := engineBitFrames(f)
	for _, frame := range frames {
		f.Add(false, bound, frame)
	}
	f.Fuzz(func(t *testing.T, fwd, bound bool, data []byte) {
		typ, dest := TypeAssessBR, any(new(AssessBatchResponse))
		if fwd {
			typ, dest = TypeFwdAssessBR, new(FwdAssessBatchResponse)
		}
		if err := decodeBinaryPayload(typ, data, bound, dest); err != nil {
			return
		}
		items := reflect.ValueOf(dest).Elem().FieldByName("Items").Len()
		if items > MaxAssessBatch || items*4 > len(data) {
			t.Fatalf("%d items out of %d bytes", items, len(data))
		}
		again, rebound, ok, err := appendBinaryPayload(nil, dest)
		if !ok || err != nil || rebound != bound || !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, which encodes as %x (%v)", data, again, err)
		}
	})
}

// FuzzNegotiate drives the server's half of the handshake — ReadHello, then
// CodecFor and one frame in the chosen codec — over arbitrary connection
// openings. Invariants: no panic; every well-formed hello negotiates,
// whatever revision it offers, binary exactly when it offers this build's;
// any other non-empty opening is refused as a malformed message; and a
// bridged connection never hands on a binary payload.
func FuzzNegotiate(f *testing.F) {
	var hello bytes.Buffer
	_ = WriteHello(&hello)
	f.Add(hello.Bytes())
	f.Add([]byte(`{"v":1,"type":"ping","id":1}` + "\n"))
	f.Add([]byte{HelloMagic})
	f.Add([]byte("\xb2W2\x01\n"))
	f.Add([]byte("\xb2XY\x02\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		rev, err := ReadHello(r)
		wellFormed := len(data) >= 5 && bytes.Equal(data[:3], helloPrefix[:]) && data[4] == '\n'
		if err != nil {
			if wellFormed {
				t.Fatalf("well-formed hello rejected: %v", err)
			}
			if len(data) > 0 && !errors.Is(err, ErrBadMessage) {
				t.Fatalf("opening %q refused with %v, want ErrBadMessage", data, err)
			}
			return
		}
		if !wellFormed || rev != data[3] {
			t.Fatalf("opening %q negotiated revision %d", data, rev)
		}
		codec := CodecFor(rev)
		if codec.bridge == (rev == VersionV2) || codec.bridge == (codec.st != nil) {
			t.Fatalf("revision %d selects %+v", rev, codec)
		}
		// After a good hello the connection carries frames in that codec.
		if env, _, err := codec.ReadFrame(r, nil); err == nil && codec.bridge && env.Binary {
			t.Fatalf("bridged connection handed on a binary %s payload", env.Type)
		}
	})
}

// engineBitFrames returns one-item assess.batch.resp payloads whose item
// flags byte sets, besides accept, the bit that revisions before 11 wrote
// for an answer from the assessment cache (1 << 1) and the one for an answer
// from an accumulator (1 << 2), and whether a binding section heads them.
// The flags byte is the one byte in which the item's accepted and rejected
// encodings differ.
func engineBitFrames(tb testing.TB) ([][]byte, bool) {
	tb.Helper()
	encode := func(accept bool) ([]byte, bool) {
		buf, bound, _, err := appendBinaryPayload(nil, AssessBatchResponse{Items: []AssessBatchItem{
			{Server: "srv", AssessResponse: AssessResponse{Assessment: testAssessment(), Accept: accept}},
		}})
		if err != nil {
			tb.Fatal(err)
		}
		return buf, bound
	}
	yes, bound := encode(true)
	no, _ := encode(false)
	at := -1
	for i := range yes {
		if yes[i] != no[i] {
			if at >= 0 || yes[i] != no[i]|assessFlagAccept {
				tb.Fatalf("accepted and rejected items differ beyond the flags byte: %x, %x", yes, no)
			}
			at = i
		}
	}
	var frames [][]byte
	for _, bit := range []byte{1 << 1, 1 << 2} {
		frame := slices.Clone(yes)
		frame[at] |= bit
		frames = append(frames, frame)
	}
	return frames, bound
}

// TestAssessResponseRefusesEngineBits: since revision 11 an assess
// response's flags byte has the accept bit alone, and the decoder refuses
// the cached and incremental bits a revision-10 encoder could set.
func TestAssessResponseRefusesEngineBits(t *testing.T) {
	frames, bound := engineBitFrames(t)
	for _, frame := range frames {
		var got AssessBatchResponse
		if err := decodeBinaryPayload(TypeAssessBR, frame, bound, &got); err == nil {
			t.Fatalf("decoded %x as %+v", frame, got)
		}
	}
}
