package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"honestplayer/internal/feedback"
)

// bridgeTrip sends payload across a bridged connection: BridgeCodec's JSON
// payload in a frame, read back by a bridged reader.
func bridgeTrip(t *testing.T, typ MsgType, id uint64, payload any) Envelope {
	t.Helper()
	env, err := BridgeCodec.Encode(typ, id, payload)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteV2(&buf, env); err != nil {
		t.Fatal(err)
	}
	got, _, err := BridgeCodec.ReadFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != typ || got.ID != id {
		t.Fatalf("envelope = %+v", got)
	}
	return got
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := feedback.Feedback{
		Time: time.Unix(100, 0).UTC(), Server: "s", Client: "c", Rating: feedback.Positive,
	}
	got := bridgeTrip(t, TypeSubmit, 7, SubmitRequest{Feedback: f})
	var req SubmitRequest
	if err := DecodePayload(got, &req); err != nil {
		t.Fatal(err)
	}
	if req.Feedback.Server != "s" || !req.Feedback.Time.Equal(f.Time) {
		t.Fatalf("payload = %+v", req)
	}
}

func TestWriteMultipleFrames(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(1); i <= 3; i++ {
		env, err := V2Codec.Encode(TypePing, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteV2(&buf, env); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for i := uint64(1); i <= 3; i++ {
		env, err := ReadV2(r)
		if err != nil {
			t.Fatal(err)
		}
		if env.ID != i {
			t.Fatalf("frame %d id = %d", i, env.ID)
		}
	}
	if _, err := ReadV2(r); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: %v", err)
	}
}

// TestReadMalformed: what a bridged connection refuses, and how. A payload
// that is not JSON fails its own decode; a binary payload is in a codec
// revision this end may not read and is refused unread (ErrBadVersion, which
// the server answers with id 0 and a close); a type code with no name is
// read whole and refused on its own.
func TestReadMalformed(t *testing.T) {
	frame := func(code, flags byte, payload string) []byte {
		b := []byte{0, 0, 0, byte(v2BodyMin + len(payload)), code, flags, 0, 0, 0, 0, 0, 0, 0, 9}
		return append(b, payload...)
	}
	tests := []struct {
		name string
		in   []byte
		want error
	}{
		{"not json", frame(v2Codes[TypeSubmit], flagJSONPayload, "{nope"), ErrBadMessage},
		{"wrong version", frame(v2Codes[TypeSubmitR], 0, "\x01"), ErrBadVersion},
		{"missing type", frame(0, flagJSONPayload, "{}"), ErrUnknownType},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			env, _, err := BridgeCodec.ReadFrame(bytes.NewReader(tt.in), nil)
			if err == nil {
				err = DecodePayload(env, new(SubmitRequest))
			}
			if !errors.Is(err, tt.want) {
				t.Fatalf("err = %v, want %v", err, tt.want)
			}
			if env.ID != 9 {
				t.Fatalf("id = %d, want the frame's 9", env.ID)
			}
		})
	}
}

func TestReadFrameTooLarge(t *testing.T) {
	over := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	_, _, err := BridgeCodec.ReadFrame(bytes.NewReader(over), nil)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteFrameTooLarge(t *testing.T) {
	recs := make([]feedback.Feedback, 0, 100000)
	long := feedback.EntityID(strings.Repeat("e", 200))
	for i := 0; i < 100000; i++ {
		recs = append(recs, feedback.Feedback{
			Time: time.Unix(int64(i), 0), Server: long, Client: long, Rating: feedback.Positive,
		})
	}
	env, err := BridgeCodec.Encode(TypeHistoryR, 1, HistoryResponse{Records: recs, Total: len(recs)})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteV2(io.Discard, env); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v", err)
	}
}

func TestErrorResponseIsError(t *testing.T) {
	e := &ErrorResponse{Code: "bad_request", Message: "nope"}
	msg := e.Error()
	if !strings.Contains(msg, "bad_request") || !strings.Contains(msg, "nope") {
		t.Fatalf("Error() = %q", msg)
	}
}

func TestDecodePayloadError(t *testing.T) {
	env := Envelope{Type: TypeSubmit, Payload: []byte(`{"feedback":`)}
	var req SubmitRequest
	if err := DecodePayload(env, &req); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadAcrossBufferBoundary(t *testing.T) {
	// A frame longer than the bufio buffer must still be read whole.
	env, err := BridgeCodec.Encode(TypeHistoryR, 1, HistoryResponse{Records: manyRecords(t, 500), Total: 500})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteV2(&buf, env); err != nil {
		t.Fatal(err)
	}
	small := bufio.NewReaderSize(&buf, 16)
	got, err := ReadV2(small)
	if err != nil {
		t.Fatal(err)
	}
	var hist HistoryResponse
	if err := DecodePayload(got, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Records) != 500 {
		t.Fatalf("records = %d", len(hist.Records))
	}
}

func TestAssessBatchRoundTrip(t *testing.T) {
	req := AssessBatchRequest{
		Servers:   []feedback.EntityID{"s1", "s2", "ghost"},
		Threshold: 0.85,
	}
	got := bridgeTrip(t, TypeAssessB, 9, req)
	var decoded AssessBatchRequest
	if err := DecodePayload(got, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Servers) != 3 || decoded.Servers[2] != "ghost" || decoded.Threshold != 0.85 {
		t.Fatalf("payload = %+v", decoded)
	}
}

func TestAssessBatchResponsePerItemError(t *testing.T) {
	// A mixed response: one served item, one failed slot. The
	// per-item error must survive the round trip without disturbing its
	// siblings, and a successful item must not grow an error field.
	resp := AssessBatchResponse{Items: []AssessBatchItem{
		{Server: "s1", AssessResponse: AssessResponse{Accept: true}},
		{Server: "ghost", Error: &ErrorResponse{Code: CodeUnknownServer, Message: `no records for "ghost"`}},
	}}
	got := bridgeTrip(t, TypeAssessBR, 4, resp)
	var decoded AssessBatchResponse
	if err := DecodePayload(got, &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Items) != 2 {
		t.Fatalf("items = %d", len(decoded.Items))
	}
	ok, bad := decoded.Items[0], decoded.Items[1]
	if ok.Error != nil || !ok.Accept {
		t.Fatalf("served item = %+v", ok)
	}
	if bad.Error == nil || bad.Error.Code != CodeUnknownServer || bad.Accept {
		t.Fatalf("failed item = %+v", bad)
	}
	if n := strings.Count(string(got.Payload), `"error"`); n != 1 {
		t.Fatalf("error field must appear on the failed item only, %d times in %s", n, got.Payload)
	}
}

func TestMaxAssessBatchFitsFrame(t *testing.T) {
	// A max-size request with plausible IDs must stay far under MaxFrame in
	// either codec — the chunking client relies on the cap keeping frames
	// legal. JSON is the larger.
	servers := make([]feedback.EntityID, MaxAssessBatch)
	for i := range servers {
		servers[i] = feedback.EntityID(strings.Repeat("s", 60) + string(rune('a'+i%26)))
	}
	env, err := BridgeCodec.Encode(TypeAssessB, 1, AssessBatchRequest{Servers: servers, Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteV2(&buf, env); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= MaxFrame/4 {
		t.Fatalf("max batch request is %d bytes, uncomfortably close to MaxFrame", buf.Len())
	}
}

func manyRecords(t *testing.T, n int) []feedback.Feedback {
	t.Helper()
	recs := make([]feedback.Feedback, n)
	for i := range recs {
		recs[i] = feedback.Feedback{
			Time: time.Unix(int64(i), 0).UTC(), Server: "srv", Client: "c", Rating: feedback.Positive,
		}
	}
	return recs
}
