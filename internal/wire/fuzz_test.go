package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"honestplayer/internal/behavior"
	"honestplayer/internal/feedback"
)

// FuzzRead ensures the frame reader never panics and respects the frame
// limit on arbitrary input.
func FuzzRead(f *testing.F) {
	env, _ := Encode(TypePing, 1, nil)
	var buf bytes.Buffer
	_ = Write(&buf, env)
	f.Add(buf.Bytes())
	f.Add([]byte("{}\n"))
	f.Add([]byte("garbage with no newline"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		if got.V != Version || got.Type == "" {
			t.Fatalf("accepted invalid envelope: %+v", got)
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
	addFrame(TypeFwdBatch, 4, FwdBatchRequest{Node: "n1", Records: recs, Replica: true})
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
		if env.V != VersionV2 || env.Type == "" {
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
// the way in, BatchResponse (aggregates, rejects, and the per-item slots)
// on the way out — over arbitrary payload bytes. Invariants: no panic, no
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
	f.Add(false, []byte{2, 2, 0, 0, 1, 's', 1, 0, 1, 'c', 0, 0})         // a slot past the dictionary's end
	f.Add(false, []byte{2, 2, 0, 0, 1, 's', 1, 1, 's', 0, 1, 'c', 0, 0}) // an id introduced twice
	addPayload(TypeSubmitBR, BatchResponse{Stored: 3})
	addPayload(TypeSubmitBR, BatchResponse{
		Stored: 1, Duplicates: 1,
		Rejected: []BatchReject{{Index: 2, Reason: "zero time"}},
		Items: []SubmitBatchItem{
			{Stored: true},
			{Stored: false},
			{Error: &ErrorResponse{Code: CodeInvalidFeedback, Message: "zero time"}},
		},
	})
	f.Add(false, []byte{0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(true, []byte{0x03, 0x00, 0x01, 0x02})
	f.Fuzz(func(t *testing.T, isResp bool, data []byte) {
		typ := TypeSubmitB
		var dest any = new(BatchRequest)
		if isResp {
			typ = TypeSubmitBR
			dest = new(BatchResponse)
		}
		env := Envelope{V: VersionV2, Type: typ, ID: 1, Payload: data, Binary: true}
		if err := DecodePayload(env, dest); err != nil {
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

// fuzzRows builds a verdict table from fuzz bytes, 28 per row: a control
// byte steers each field between what a tester writes (counts in step, PHat
// on the g/Transactions grid, thresholds in runs, Pass following from the
// floats) and arbitrary bit patterns, so the fuzzer reaches every mix of
// derived and explicit columns.
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
		if ctl&8 != 0 {
			s.Pass = s.Distance <= s.Threshold
		}
		rows = append(rows, s)
		prev = s
	}
	return rows
}

// FuzzVerdictTable drives the verdict-table codec from both ends. As bytes
// off the wire: no panic, no more rows than the bytes could back, and
// anything accepted re-encodes to the bytes it came from. As rows to send:
// whatever the floats and counts hold, the table that arrives has the same
// bits in every field.
func FuzzVerdictTable(f *testing.F) {
	f.Add(appendVerdictTable(nil, testAssessment().Verdict.Suffixes))
	f.Add(appendVerdictTable(nil, []behavior.SuffixResult{
		{Transactions: 7, Windows: 3, PHat: math.NaN(), Distance: math.Inf(1), Threshold: math.Copysign(0, -1), Pass: true},
	}))
	f.Add(bytes.Repeat([]byte{0x0f, 0xff, 0xf6, 0, 7}, 40)) // rows in step, on the grid
	f.Add(bytes.Repeat([]byte{0x20, 0x7f, 0xf8, 1}, 21))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &breader{buf: data}
		if rows, err := r.verdictTable(); err == nil {
			used := data[:len(data)-len(r.buf)]
			if len(rows)*10 > len(used) {
				t.Fatalf("%d rows out of %d bytes", len(rows), len(used))
			}
			if again := appendVerdictTable(nil, rows); !bytes.Equal(again, used) {
				t.Fatalf("accepted %x, which encodes as %x", used, again)
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
			f.Add(typ == TypeFwdAssessBR, []byte(env.Payload))
		}
	}
	f.Add(false, binary.AppendUvarint(nil, MaxFrame))
	f.Add(true, []byte{1, 'n', 0xff, 0x01, 0, 0})
	f.Fuzz(func(t *testing.T, fwd bool, data []byte) {
		typ, dest := TypeAssessBR, any(new(AssessBatchResponse))
		if fwd {
			typ, dest = TypeFwdAssessBR, new(FwdAssessBatchResponse)
		}
		if err := decodeBinaryPayload(typ, data, dest); err != nil {
			return
		}
		items := reflect.ValueOf(dest).Elem().FieldByName("Items").Len()
		if items > MaxAssessBatch || items*4 > len(data) {
			t.Fatalf("%d items out of %d bytes", items, len(data))
		}
		again, ok, err := appendBinaryPayload(nil, dest)
		if !ok || err != nil || !bytes.Equal(again, data) {
			t.Fatalf("accepted %x, which encodes as %x (%v)", data, again, err)
		}
	})
}

// FuzzNegotiate drives the server-side first-byte dispatch — the same
// peek-then-branch the repserver accept path performs — over arbitrary
// connection openings. Invariants: no panic, JSON openings never reach the
// v2 path, and a well-formed hello always negotiates.
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
		first, err := r.Peek(1)
		if err != nil {
			return
		}
		if first[0] != HelloMagic {
			// JSON path: the line reader must handle whatever follows.
			_, _ = Read(r)
			return
		}
		ver, err := ReadHello(r)
		if err != nil {
			if len(data) >= 5 && bytes.Equal(data[:3], helloPrefix[:]) &&
				data[3] >= VersionV2 && data[4] == '\n' {
				t.Fatalf("well-formed hello rejected: %v", err)
			}
			return
		}
		if ver < VersionV2 {
			t.Fatalf("negotiated unsupported version %d", ver)
		}
		// After a good hello the connection carries v2 frames.
		if _, err := ReadV2(r); err != nil && errors.Is(err, io.ErrUnexpectedEOF) {
			return
		}
	})
}
