package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/store"
)

func testRecord(i int) feedback.Feedback {
	r := feedback.Positive
	if i%3 == 0 {
		r = feedback.Negative
	}
	return feedback.Feedback{
		Time:   time.Unix(int64(1000+i), int64(i)*1000).UTC(),
		Server: "srv-a",
		Client: feedback.EntityID("client-" + strings.Repeat("x", i%4)),
		Rating: r,
	}
}

func testAssessment() core.Assessment {
	return core.Assessment{
		Server:    "srv-a",
		Trust:     0.9375,
		TrustLow:  0.81,
		TrustHigh: 0.97,
		Tester:    "multi",
		TrustFunc: "average",
		Verdict: behavior.Verdict{
			Honest: true,
			Suffixes: []behavior.SuffixResult{
				{Transactions: 40, Windows: 4, PHat: 0.95, Distance: 0.12, Threshold: 0.2, Pass: true},
				{Transactions: 20, Windows: 2, PHat: 0.9, Distance: 0.3, Threshold: 0.2, Pass: false},
			},
		},
	}
}

// v2Payloads is every payload with a binary codec, exercised by the
// round-trip and cross-codec tests below.
func v2Payloads() map[MsgType]any {
	return map[MsgType]any{
		TypeSubmit:  SubmitRequest{Feedback: testRecord(1)},
		TypeSubmitR: SubmitResponse{Stored: true},
		TypeSubmitB: BatchRequest{Records: []feedback.Feedback{testRecord(1), testRecord(2), testRecord(3)}},
		TypeSubmitBR: NewBatchResponse([]SubmitBatchItem{
			{Stored: true},
			{Stored: false}, // duplicate: not stored, no error
			{Error: &ErrorResponse{Code: CodeInvalidFeedback, Message: "zero time"}},
			{Stored: true},
		}),
		TypeHistory:  HistoryRequest{Server: "srv-a", Limit: 25},
		TypeHistoryR: HistoryResponse{Records: []feedback.Feedback{testRecord(4), testRecord(5)}, Total: 99},
		TypeAssess:   AssessRequest{Server: "srv-a", Threshold: 0.875},
		TypeAssessR:  AssessResponse{Assessment: testAssessment(), Accept: true},
		TypeAssessB:  AssessBatchRequest{Servers: []feedback.EntityID{"a", "b", "c"}, Threshold: 0.9},
		TypeAssessBR: AssessBatchResponse{Items: []AssessBatchItem{
			{Server: "a", AssessResponse: AssessResponse{Assessment: testAssessment(), Accept: true}},
			{Server: "b", Error: &ErrorResponse{Code: CodeUnknownServer, Message: `no records for "b"`}},
		}},
		TypeError:      ErrorResponse{Code: CodeBadRequest, Message: "boom"},
		TypeFwdBatch:   FwdBatchRequest{Node: "n2", Records: packed(testRecord(1), testRecord(2))},
		TypeFwdBatchR:  NewBatchResponse([]SubmitBatchItem{{Stored: true}, {Stored: true}}),
		TypeFwdAssessB: FwdAssessBatchRequest{Node: "n1", Servers: []feedback.EntityID{"a", "b"}, Threshold: 0.9},
		TypeFwdAssessBR: FwdAssessBatchResponse{Node: "n3", Items: []AssessBatchItem{
			{Server: "a", AssessResponse: AssessResponse{Assessment: testAssessment(), Accept: true}},
			{Server: "b", Error: &ErrorResponse{Code: CodeUnavailable, Message: "owner down"}},
		}},
		TypeSummary: SummaryMsg{Node: "n1", Servers: map[string]store.Checksum{
			"srv-b": {Count: 2, XOR: 1 << 63}, "srv-a": {Count: 300, XOR: 0xfeed},
		}},
		TypeSummaryR: SummaryResp{Stale: []string{"srv-a", "srv-b"}, Records: packed(testRecord(1), testRecord(2))},
	}
}

// packed is the RecordBatch of recs, which must be valid.
func packed(recs ...feedback.Feedback) RecordBatch {
	b, errs := feedback.Pack(recs)
	if errs != nil {
		panic(errs)
	}
	return RecordBatch{Batch: b}
}

// asRows returns p, or what p points to, with every RecordBatch as the list
// of its records: what DeepEqual can compare.
func asRows(p any) any {
	records := func(rb RecordBatch) []feedback.Feedback {
		if rb.Batch == nil {
			return nil
		}
		return rb.Batch.Records()
	}
	switch v := p.(type) {
	case *FwdBatchRequest:
		return asRows(*v)
	case FwdBatchRequest:
		return []any{v.Node, v.Replica, records(v.Records), v.Records.Invalid}
	case *SummaryResp:
		return asRows(*v)
	case SummaryResp:
		return []any{v.Stale, records(v.Records), v.Records.Invalid}
	}
	return p
}

// newPayload returns a zero destination of the same concrete type as p.
func newPayload(p any) any {
	return reflect.New(reflect.TypeOf(p)).Interface()
}

// appendBinaryPayload appends the binary encoding of payload to buf as a
// frame of its own (V2Codec), and reports whether a binding section heads
// it and whether the payload has a binary codec.
func appendBinaryPayload(buf []byte, payload any) (_ []byte, bound, ok bool, err error) {
	env := Envelope{Payload: buf}
	ok, err = encodeBinary(&env, payload, &V2Codec.state().out)
	return env.Payload, env.Bindings, ok, err
}

// decodeBinaryPayload decodes a binary payload of type t, headed by a
// binding section when bound says so, as a frame of its own.
func decodeBinaryPayload(t MsgType, buf []byte, bound bool, out any) error {
	return V2Codec.DecodePayload(Envelope{Type: t, Payload: buf, Binary: true, Bindings: bound}, out)
}

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[0] == '{' {
		t.Fatal("hello must not start like a JSON frame")
	}
	ver, err := ReadHello(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ver != VersionV2 {
		t.Fatalf("offered version %d, want %d", ver, VersionV2)
	}
	buf.Reset()
	if err := WriteHelloAck(&buf); err != nil {
		t.Fatal(err)
	}
	if rev, err := ReadAck(&buf); err != nil || rev != VersionV2 {
		t.Fatalf("ack of revision %d, %v", rev, err)
	}
}

func TestReadHelloRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "\xb2", "\xb2W2", "\xb2W2\x02X", "\xb2XX\x02\n", "{\"v\":1}\n"} {
		if _, err := ReadHello(strings.NewReader(in)); err == nil {
			t.Fatalf("ReadHello(%q) accepted", in)
		}
	}
	// Garbage is a malformed message; a connection closed before its first
	// byte is not.
	for _, in := range []string{"\xb2", "\xb2W2\x02X", "{\"v\":1}\n"} {
		if _, err := ReadHello(strings.NewReader(in)); !errors.Is(err, ErrBadMessage) {
			t.Fatalf("ReadHello(%q) = %v, want ErrBadMessage", in, err)
		}
	}
	if _, err := ReadHello(strings.NewReader("")); !errors.Is(err, io.EOF) || errors.Is(err, ErrBadMessage) {
		t.Fatalf("empty opening: got %v, want a bare io.EOF", err)
	}
	// Any revision, older or newer, is a well-formed hello and is reported.
	for _, rev := range []byte{1, VersionV2 - 1, 7} {
		ver, err := ReadHello(bytes.NewReader([]byte{HelloMagic, 'W', '2', rev, '\n'}))
		if err != nil || ver != rev {
			t.Fatalf("revision %d: got %d, %v", rev, ver, err)
		}
	}
}

func TestReadHelloAckDetectsJSONFallback(t *testing.T) {
	_, err := ReadAck(strings.NewReader(`{"v":1,"type":"error","id":0,"payload":{}}` + "\n"))
	if !errors.Is(err, ErrNotV2) {
		t.Fatalf("got %v, want ErrNotV2", err)
	}
}

// TestHelloSkewSelectsBridge: an ack, like a hello, of another codec
// revision is well formed — the end that reads it speaks the JSON bridge —
// and only this build's own revision selects the binary codec.
func TestHelloSkewSelectsBridge(t *testing.T) {
	for _, rev := range []byte{VersionV2 - 1, VersionV2, VersionV2 + 1} {
		got, err := ReadAck(bytes.NewReader([]byte{HelloMagic, 'W', '2', rev}))
		if err != nil || got != rev {
			t.Fatalf("ack of revision %d: got %d, %v", rev, got, err)
		}
		if c := CodecFor(rev); c.bridge != (rev != VersionV2) || (c.st != nil) != (rev == VersionV2) {
			t.Fatalf("revision %d selects %+v", rev, c)
		}
	}
}

func TestV2FrameRoundTrip(t *testing.T) {
	for typ, payload := range v2Payloads() {
		env, err := V2Codec.Encode(typ, 42, payload)
		if err != nil {
			t.Fatalf("%s: encode: %v", typ, err)
		}
		if !env.Binary {
			t.Fatalf("%s: expected binary payload", typ)
		}
		var buf bytes.Buffer
		if err := WriteV2(&buf, env); err != nil {
			t.Fatalf("%s: write: %v", typ, err)
		}
		got, err := ReadV2(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("%s: read: %v", typ, err)
		}
		if got.Type != typ || got.ID != 42 || !got.Binary {
			t.Fatalf("%s: frame header %+v", typ, got)
		}
		out := newPayload(payload)
		if err := DecodePayload(got, out); err != nil {
			t.Fatalf("%s: decode: %v", typ, err)
		}
		if got := reflect.ValueOf(out).Elem().Interface(); !reflect.DeepEqual(asRows(got), asRows(payload)) {
			t.Fatalf("%s: round trip:\n got %+v\nwant %+v", typ, got, payload)
		}
	}
}

// TestFramesAloneShareNothing: a V2Codec frame is a connection of its own,
// so nothing one frame plans or binds reaches another. Every payload
// encodes to the same frame twice in a row and from 8 goroutines at once,
// each of which decodes what it encoded, and a frame of keyed verdicts
// carries its binding section every time.
func TestFramesAloneShareNothing(t *testing.T) {
	payloads := v2Payloads()
	frame := func(typ MsgType, payload any) ([]byte, Envelope, error) {
		env, err := V2Codec.Encode(typ, 1, payload)
		if err != nil {
			return nil, env, err
		}
		buf, err := AppendV2(nil, env)
		return buf, env, err
	}
	want := make(map[MsgType][]byte, len(payloads))
	for typ, payload := range payloads {
		first, env, err := frame(typ, payload)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		again, _, err := frame(typ, payload)
		if err != nil || !bytes.Equal(again, first) {
			t.Fatalf("%s: %x, then %x (%v)", typ, first, again, err)
		}
		if verdictRows(payload) > 0 && !env.Bindings {
			t.Fatalf("%s: a keyed verdict frame without its binding section", typ)
		}
		want[typ] = first
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8*len(payloads))
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for typ, payload := range payloads {
				got, env, err := frame(typ, payload)
				if err == nil && !bytes.Equal(got, want[typ]) {
					err = fmt.Errorf("%x, want %x", got, want[typ])
				}
				if err == nil {
					err = DecodePayload(env, newPayload(payload))
				}
				if err != nil {
					errs <- fmt.Errorf("%s: %v", typ, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestV2JSONPayloadFallback covers payloads the binary form refuses: they
// cross a binary connection as JSON payload bytes with the flag bit set — an
// invalid record here, which the server, not the client codec, rejects. A
// summary's JSON bytes are pinned as well: its checksums are the store's,
// and a bridged peer of another build must read them.
func TestV2JSONPayloadFallback(t *testing.T) {
	msg := SubmitRequest{Feedback: feedback.Feedback{Time: time.Unix(3, 0).UTC(), Server: "s", Client: "c", Rating: 7}}
	env, err := V2Codec.Encode(TypeSubmit, 9, msg)
	if err != nil {
		t.Fatal(err)
	}
	if env.Binary {
		t.Fatal("an invalid record should fall back to a JSON payload")
	}
	if want := `{"feedback":{"time":"1970-01-01T00:00:03Z","server":"s","client":"c","rating":7}}`; string(env.Payload) != want {
		t.Fatalf("submit payload %s, want %s", env.Payload, want)
	}
	var buf bytes.Buffer
	if err := WriteV2(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, err := ReadV2(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Binary {
		t.Fatal("JSON flag lost in framing")
	}
	var out SubmitRequest
	if err := DecodePayload(got, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, msg) {
		t.Fatalf("got %+v, want %+v", out, msg)
	}

	summary := SummaryMsg{Node: "n1", Servers: map[string]store.Checksum{"s": {Count: 3, XOR: 1 << 63}}}
	env, err = BridgeCodec.Encode(TypeSummary, 9, summary)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"node":"n1","servers":{"s":{"count":3,"xor":9223372036854775808}}}`; env.Binary || string(env.Payload) != want {
		t.Fatalf("bridged summary payload %s, want %s", env.Payload, want)
	}
	var back SummaryMsg
	if err := DecodePayload(env, &back); err != nil || !reflect.DeepEqual(back, summary) {
		t.Fatalf("bridged summary read back %+v, %v", back, err)
	}
}

// TestEveryTypeEncodesBinary: on a same-revision connection every message
// type but ping and pong has a binary codec, so flagJSONPayload marks only
// a payload the binary form refuses (TestV2JSONPayloadFallback).
func TestEveryTypeEncodesBinary(t *testing.T) {
	payloads := v2Payloads()
	for typ := range v2Codes {
		if typ == TypePing || typ == TypePong {
			continue
		}
		payload, ok := payloads[typ]
		if !ok {
			t.Errorf("%s: no payload in v2Payloads", typ)
			continue
		}
		if env, err := CodecFor(VersionV2).Encode(typ, 1, payload); err != nil || !env.Binary {
			t.Errorf("%s: binary %v, %v", typ, env.Binary, err)
		}
	}
}

// TestSummaryGoldenFrame pins a gossip.summary's bytes: the node, then each
// server's name and checksum in ascending name order, whatever order the
// map iterates in.
func TestSummaryGoldenFrame(t *testing.T) {
	msg := SummaryMsg{Node: "n1", Servers: map[string]store.Checksum{"s2": {Count: 1, XOR: 2}, "s1": {Count: 300, XOR: 1 << 63}}}
	want := []byte{
		2, 'n', '1', // node
		2,              // servers
		0, 2, 's', '1', // literal "s1"
		0xac, 2, 0x80, 0, 0, 0, 0, 0, 0, 0, // count 300, XOR
		0, 2, 's', '2', // literal "s2"
		1, 0, 0, 0, 0, 0, 0, 0, 2, // count 1, XOR
	}
	for range 4 {
		env, err := V2Codec.Encode(TypeSummary, 3, msg)
		if err != nil || !env.Binary || !bytes.Equal(env.Payload, want) {
			t.Fatalf("summary payload %x (%v), want %x", env.Payload, err, want)
		}
	}
}

// TestV2EmptyPayload pins the ping/pong shape: ten body bytes, nil payload.
func TestV2EmptyPayload(t *testing.T) {
	env, err := V2Codec.Encode(TypePing, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteV2(&buf, env); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != v2HeaderLen {
		t.Fatalf("ping frame is %d bytes, want %d", buf.Len(), v2HeaderLen)
	}
	got, err := ReadV2(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Payload != nil || got.Type != TypePing || got.ID != 1 {
		t.Fatalf("frame %+v", got)
	}
}

// TestCrossCodecFidelity proves equal verdict fidelity between the two
// encodings: the same payload decodes identically whether it crossed a
// bridged connection as JSON or a binary one.
func TestCrossCodecFidelity(t *testing.T) {
	for typ, payload := range v2Payloads() {
		jenv, err := BridgeCodec.Encode(typ, 1, payload)
		if err != nil {
			t.Fatalf("%s: json encode: %v", typ, err)
		}
		benv, err := V2Codec.Encode(typ, 1, payload)
		if err != nil {
			t.Fatalf("%s: v2 encode: %v", typ, err)
		}
		fromJSON, fromBin := newPayload(payload), newPayload(payload)
		if err := DecodePayload(jenv, fromJSON); err != nil {
			t.Fatalf("%s: json decode: %v", typ, err)
		}
		if err := DecodePayload(benv, fromBin); err != nil {
			t.Fatalf("%s: binary decode: %v", typ, err)
		}
		// Compare the time fields by instant, everything else structurally:
		// both decoders normalise times to UTC, so DeepEqual holds for the
		// payloads above (all timestamps are constructed in UTC).
		if !reflect.DeepEqual(asRows(fromJSON), asRows(fromBin)) {
			t.Fatalf("%s: codecs disagree:\n json %+v\n  v2  %+v", typ, fromJSON, fromBin)
		}
	}
}

func TestV2FrameLimit(t *testing.T) {
	big := Envelope{Type: TypeSubmit, ID: 1, Binary: true, Payload: make([]byte, MaxFrame)}
	if err := WriteV2(io.Discard, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write: got %v, want ErrFrameTooLarge", err)
	}
	// A forged oversized length prefix must be rejected before any payload
	// allocation or read.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadV2(bufio.NewReader(&buf)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read: got %v, want ErrFrameTooLarge", err)
	}
}

func TestV2RejectsUndersizedBody(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 5}) // body shorter than type+flags+id
	buf.Write(make([]byte, 16))
	if _, err := ReadV2(bufio.NewReader(&buf)); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("got %v, want ErrBadMessage", err)
	}
}

func TestBinaryDecodeStrictness(t *testing.T) {
	env, err := V2Codec.Encode(TypeAssess, 1, AssessRequest{Server: "s", Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Trailing garbage after a complete payload is a protocol violation.
	withTrailing := append(append([]byte(nil), env.Payload...), 0xFF)
	var req AssessRequest
	if err := decodeBinaryPayload(TypeAssess, withTrailing, false, &req); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Every truncation of a valid payload must fail, never panic.
	for cut := 0; cut < len(env.Payload); cut++ {
		var req AssessRequest
		if err := decodeBinaryPayload(TypeAssess, env.Payload[:cut], false, &req); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// A count that promises more elements than the remaining bytes could
	// hold must be rejected without allocating for it.
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0x0f} // uvarint ~4e9
	var batch BatchRequest
	if err := decodeBinaryPayload(TypeSubmitB, huge, false, &batch); err == nil {
		t.Fatal("oversized count accepted")
	}
}

// TestReadV2IntoReuse is the pooled-buffer aliasing regression test: a
// payload decoded from a reused read buffer must stay intact after the
// buffer is overwritten by the next frame. DecodePayload must copy
// everything it keeps (strings, records) out of the frame buffer.
func TestReadV2IntoReuse(t *testing.T) {
	var stream bytes.Buffer
	first, _ := V2Codec.Encode(TypeAssess, 1, AssessRequest{Server: "server-alpha", Threshold: 0.25})
	second, _ := V2Codec.Encode(TypeAssess, 2, AssessRequest{Server: "server-beta!", Threshold: 0.75})
	if err := WriteV2(&stream, first); err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(&stream, second); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(&stream)
	env1, buf, err := ReadV2Into(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	var req1 AssessRequest
	if err := DecodePayload(env1, &req1); err != nil {
		t.Fatal(err)
	}
	// Same buffer, second frame: this overwrites env1's payload bytes.
	env2, _, err := ReadV2Into(r, buf)
	if err != nil {
		t.Fatal(err)
	}
	var req2 AssessRequest
	if err := DecodePayload(env2, &req2); err != nil {
		t.Fatal(err)
	}
	if req1.Server != "server-alpha" || req1.Threshold != 0.25 {
		t.Fatalf("first decode corrupted by buffer reuse: %+v", req1)
	}
	if req2.Server != "server-beta!" || req2.Threshold != 0.75 {
		t.Fatalf("second decode wrong: %+v", req2)
	}
}

// TestWriteRejectsBinaryEnvelope pins the bridge's write-side guard: a
// bridged connection never puts a binary payload on the wire, not even for
// the types that have a binary codec, because its peer may not read this
// build's layout. Every payload BridgeCodec encodes is JSON, and the frame
// says so.
func TestWriteRejectsBinaryEnvelope(t *testing.T) {
	for typ, payload := range v2Payloads() {
		env, err := BridgeCodec.Encode(typ, 1, payload)
		if err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		var buf bytes.Buffer
		if err := WriteV2(&buf, env); err != nil {
			t.Fatalf("%s: %v", typ, err)
		}
		if env.Binary || buf.Bytes()[5]&flagJSONPayload == 0 {
			t.Fatalf("%s: the bridge wrote a binary payload", typ)
		}
	}
}

func TestWriteV2RejectsUnknownType(t *testing.T) {
	err := WriteV2(io.Discard, Envelope{Type: "nonsense", ID: 1})
	if err == nil {
		t.Fatal("unknown type accepted")
	}
}

// The retired fwd.assess pair held codes 18 and 19 (ADR 0010), the retired
// fwd.submit pair 20 and 21 (ADR 0001). A frame carrying any of them must be
// refused, and the codes after them must not have shifted down. The refused
// frame is read whole, payload and all, so the frame after it on the stream
// still reads.
func TestV2RetiredCodesStayReserved(t *testing.T) {
	for _, code := range []byte{18, 19, 20, 21} {
		stream := bytes.NewReader([]byte{
			0, 0, 0, v2BodyMin + 2, code, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0xAA, 0xBB,
			0, 0, 0, v2BodyMin, 1, 0, 0, 0, 0, 0, 0, 0, 0, 8,
		})
		env, err := ReadV2(stream)
		if !errors.Is(err, ErrBadMessage) || !errors.Is(err, ErrUnknownType) || env.ID != 7 {
			t.Errorf("code %d: got id %d, %v; want id 7, ErrUnknownType", code, env.ID, err)
		}
		if next, err := ReadV2(stream); err != nil || next.Type != TypePing || next.ID != 8 {
			t.Errorf("code %d: frame after it = %+v, %v; want ping 8", code, next, err)
		}
	}
	if got := v2Codes[TypeFwdBatch]; got != 22 {
		t.Errorf("fwd.submit.batch code = %d, want 22", got)
	}
}

// TestSubmitBatchGoldenFrame pins submit.batch on the wire as revision 12
// lays it out, as revisions 6 to 11 did and a frame that stands alone still
// does (a connection spells the ids its intros introduce as name refs): the
// v2 header, then the records as one
// feedback.AppendBatch column batch with dictionaries that start empty at
// the frame, its times divided by their differences' greatest common
// divisor (ADR 0014).
func TestSubmitBatchGoldenFrame(t *testing.T) {
	req := BatchRequest{Records: []feedback.Feedback{
		{Time: time.Unix(0, 100).UTC(), Server: "s1", Client: "c1", Rating: feedback.Positive},
		{Time: time.Unix(0, 106).UTC(), Server: "s2", Client: "c1", Rating: feedback.Negative},
		{Time: time.Unix(0, 102).UTC(), Server: "s1", Client: "c2", Rating: feedback.Positive},
	}}
	want := []byte{
		0, 0, 0, 39, // body length
		5, 0, // submit.batch, binary payload
		0, 0, 0, 0, 0, 0, 0, 9, // id
		3,                // records
		0xc8, 1, 2, 6, 3, // times: zig-zag 100, scale 2, +6/2, -4/2
		0, 0, 2, 's', '1', 1, 0, 2, 's', '2', 0, // servers: new literal "s1", new literal "s2", slot 0
		0, 0, 2, 'c', '1', 0, 1, 0, 2, 'c', '2', // clients: new literal "c1", slot 0, new literal "c2"
		0b101, // good
	}
	var buf bytes.Buffer
	if err := WriteHello(&buf); err != nil || !bytes.Equal(buf.Bytes(), []byte{0xB2, 'W', '2', 16, '\n'}) {
		t.Fatalf("hello = %x, %v; the layout below is revision 16's", buf.Bytes(), err)
	}
	buf.Reset()
	env, err := V2Codec.Encode(TypeSubmitB, 9, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(&buf, env); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame moved:\n got %x\nwant %x", buf.Bytes(), want)
	}
	got, err := ReadV2(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var back BatchRequest
	if err := DecodePayload(got, &back); err != nil || !reflect.DeepEqual(back, req) {
		t.Fatalf("decoded %+v, %v", back, err)
	}
}

// TestRecordBatchCarriers: the three payloads that carry records all ride
// the batch codec — a repeated id costs a slot in each — and each is strict
// about what follows the batch.
func TestRecordBatchCarriers(t *testing.T) {
	recs := make([]feedback.Feedback, 64)
	for i := range recs {
		recs[i] = testRecord(i)
		recs[i].Server = feedback.EntityID(fmt.Sprintf("server-%04d", i%8))
	}
	for typ, payload := range map[MsgType]any{
		TypeSubmitB:  BatchRequest{Records: recs},
		TypeFwdBatch: FwdBatchRequest{Node: "n1", Records: packed(recs...), Replica: true},
		TypeHistoryR: HistoryResponse{Total: 900, Records: recs},
	} {
		got, size := roundTrip(t, typ, payload)
		if !reflect.DeepEqual(asRows(got), asRows(payload)) {
			t.Errorf("%s did not round-trip", typ)
		}
		// Rows spent 13 B of framing and both ids in full on every record:
		// 13 + 11 + 7..10 B here. Columns spell 8 servers and 4 clients once.
		if per := float64(size) / float64(len(recs)); per > 12 {
			t.Errorf("%s: %.1f B per record", typ, per)
		}
		env, err := V2Codec.Encode(typ, 1, payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range [][]byte{append(append([]byte(nil), env.Payload...), 0), env.Payload[:len(env.Payload)-1]} {
			if err := decodeBinaryPayload(typ, bad, false, newPayload(payload)); !errors.Is(err, ErrBadMessage) {
				t.Errorf("%s with %d of %d payload bytes: err = %v", typ, len(bad), len(env.Payload), err)
			}
		}
	}
	// No records at all is still a frame.
	for typ, payload := range map[MsgType]any{
		TypeSubmitB:  BatchRequest{},
		TypeHistoryR: HistoryResponse{Total: 3},
	} {
		if got, _ := roundTrip(t, typ, payload); !reflect.DeepEqual(got, payload) {
			t.Errorf("empty %s did not round-trip: %+v", typ, got)
		}
	}
}

// TestBatchViewReadsBatchRequest: the node decodes a submit.batch into
// BatchView, its records one column batch: from a binary payload, the
// records a BatchRequest decodes to and, written back, the same bytes; from
// a bridged client's JSON, the valid records in the batch and each invalid
// one's error at its position.
func TestBatchViewReadsBatchRequest(t *testing.T) {
	recs := []feedback.Feedback{testRecord(1), testRecord(2), testRecord(5), testRecord(1)}
	env, err := V2Codec.Encode(TypeSubmitB, 1, BatchRequest{Records: recs})
	if err != nil || !env.Binary {
		t.Fatalf("binary encode: %v", err)
	}
	var view BatchView
	if err := DecodePayload(env, &view); err != nil || !reflect.DeepEqual(view.Records.Batch.Records(), recs) || view.Records.Invalid != nil {
		t.Fatalf("binary BatchView: %+v, %v", view, err)
	}
	again, err := V2Codec.Encode(TypeSubmitB, 1, BatchRequest{Records: view.Records.Batch.Records()})
	if err != nil || !bytes.Equal(again.Payload, env.Payload) {
		t.Fatalf("BatchView re-encodes to %x (%v), want %x", again.Payload, err, env.Payload)
	}
	bad := append([]feedback.Feedback{{Server: "s", Client: "c", Rating: feedback.Positive}}, recs...)
	bad = append(bad, feedback.Feedback{Time: time.Unix(1, 0).UTC(), Server: "s", Client: "c", Rating: 3})
	jenv, err := BridgeCodec.Encode(TypeSubmitB, 1, BatchRequest{Records: bad})
	if err != nil {
		t.Fatal(err)
	}
	view = BatchView{}
	if err := DecodePayload(jenv, &view); err != nil {
		t.Fatal(err)
	}
	if view.Records.Len() != len(bad) || !reflect.DeepEqual(view.Records.Batch.Records(), recs) {
		t.Fatalf("JSON BatchView holds %d records, batch %v", view.Records.Len(), view.Records.Batch.Records())
	}
	for i, err := range view.Records.Invalid {
		if invalid := i == 0 || i == len(bad)-1; invalid != (err != nil) {
			t.Errorf("record %d: invalid = %v", i, err)
		}
	}
}

// TestFrameDictionariesStartEmpty: the dictionaries' storage is recycled
// between frames, their contents never — the same records, thresholds and
// names encode to the same bytes however many frames came before, and each
// frame decodes on its own.
func TestFrameDictionariesStartEmpty(t *testing.T) {
	payloads := v2Payloads()
	for _, typ := range []MsgType{TypeSubmitB, TypeAssessR, TypeAssessBR} {
		sent := payloads[typ]
		first, err := V2Codec.Encode(typ, 1, sent)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			again, err := V2Codec.Encode(typ, 1, sent)
			if err != nil || !bytes.Equal(again.Payload, first.Payload) {
				t.Fatalf("%s frame %d of the same payload: %x (%v), want %x", typ, i+2, again.Payload, err, first.Payload)
			}
			back := newPayload(sent)
			if err := DecodePayload(again, back); err != nil || !reflect.DeepEqual(reflect.ValueOf(back).Elem().Interface(), sent) {
				t.Fatalf("%s frame %d: decoded %+v, %v", typ, i+2, back, err)
			}
			// A refused frame in between leaves nothing behind either.
			if err := decodeBinaryPayload(typ, again.Payload[:len(again.Payload)-1], again.Bindings, newPayload(sent)); err == nil {
				t.Fatalf("%s: truncated frame accepted", typ)
			}
		}
	}
}

// TestProtocolDocRevision: docs/PROTOCOL.md's handshake names this build's
// revision as the current one, and its table of revisions ends with it.
func TestProtocolDocRevision(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	current := regexp.MustCompile("currently \\*\\*`(\\d+)`\\*\\*").FindSubmatch(doc)
	if current == nil {
		t.Fatal("PROTOCOL.md names no current revision")
	}
	// The table opens with its header row and runs to the first line that
	// is not a row.
	_, table, ok := strings.Cut(string(doc), "| revision |")
	if !ok {
		t.Fatal("PROTOCOL.md has no table of revisions")
	}
	last := ""
	for _, line := range strings.Split(table, "\n")[1:] {
		if !strings.HasPrefix(line, "|") {
			break
		}
		last = line
	}
	row := regexp.MustCompile(`^\| (\d+) \|`).FindStringSubmatch(last)
	want := strconv.Itoa(VersionV2)
	if string(current[1]) != want || row == nil || row[1] != want {
		t.Fatalf("PROTOCOL.md: currently %s, last table row %q; wire.VersionV2 is %s", current[1], last, want)
	}
}

// TestProtocolDocFrame: docs/PROTOCOL.md's byte-by-byte frame is what the
// encoder writes for it: the second assess.resp on a connection, on a
// server new to it, after one on srv-a. Each line of the dump is its bytes
// in hex, then two spaces and what they are.
func TestProtocolDocFrame(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	_, dump, ok := strings.Cut(string(doc), "`TestProtocolDocFrame` builds it")
	if _, dump, ok = strings.Cut(dump, "```\n"); !ok {
		t.Fatal("PROTOCOL.md has no frame dump")
	}
	dump, _, _ = strings.Cut(dump, "```")
	var want []byte
	for _, line := range strings.Split(dump, "\n") {
		hexes, _, _ := strings.Cut(strings.TrimSpace(line), "  ")
		b, err := hex.DecodeString(strings.ReplaceAll(hexes, " ", ""))
		if err != nil {
			t.Fatalf("PROTOCOL.md dump line %q: %v", line, err)
		}
		want = append(want, b...)
	}
	tp, err := core.DefaultSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := newConnection()
	first, _ := judge(t, tp, honestHistory(t, "srv-a", 60, 0.9, 1))
	c.send(t, TypeAssessR, 1, first.AssessResponse)
	c.receive(t)
	second, _ := judge(t, tp, honestHistory(t, "srv-b", 64, 0.8, 2))
	var got bytes.Buffer
	if err := WriteV2(&got, c.send(t, TypeAssessR, 2, second.AssessResponse)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("PROTOCOL.md's frame:\n% x\nthe encoder writes:\n% x", want, got.Bytes())
	}
}
