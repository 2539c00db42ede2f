package wire

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/trust"
)

func BenchmarkEnvelopeRoundTrip(b *testing.B) {
	f := feedback.Feedback{
		Time: time.Unix(1, 0).UTC(), Server: "s", Client: "c", Rating: feedback.Positive,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, err := V2Codec.Encode(TypeSubmit, uint64(i), SubmitRequest{Feedback: f})
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteV2(&buf, env); err != nil {
			b.Fatal(err)
		}
		got, err := ReadV2(bufio.NewReader(&buf))
		if err != nil {
			b.Fatal(err)
		}
		var out SubmitRequest
		if err := DecodePayload(got, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// benchBatchResponse is an assess.batch.resp of the given width over honest
// histories of the given length, p spread over the benchmark's range.
func benchBatchResponse(b *testing.B, servers, records int) AssessBatchResponse {
	b.Helper()
	multi, err := behavior.NewMulti(behavior.Config{Calibrator: testCalibrator()})
	if err != nil {
		b.Fatal(err)
	}
	tp, err := core.NewTwoPhase(multi, trust.Average{})
	if err != nil {
		b.Fatal(err)
	}
	resp := AssessBatchResponse{Items: make([]AssessBatchItem, servers)}
	for i := range resp.Items {
		id := feedback.EntityID(fmt.Sprintf("server-%04d", i))
		a, err := tp.Assess(honestHistory(b, id, records, 0.90+0.09*float64(i%8)/7, int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		resp.Items[i] = AssessBatchItem{Server: id, AssessResponse: AssessResponse{Assessment: a, Accept: true}}
	}
	return resp
}

// BenchmarkAssessBatchResponse encodes and decodes the two batch shapes the
// scoreboard drives — wide and shallow (assess_wide), narrow and deep
// (assess_deep's verdicts, batched) — and reports the payload per verdict.
func BenchmarkAssessBatchResponse(b *testing.B) {
	for _, shape := range []struct{ servers, records int }{{256, 200}, {8, 5000}} {
		resp := benchBatchResponse(b, shape.servers, shape.records)
		suffixes := len(resp.Items[0].Assessment.Verdict.Suffixes)
		env, err := V2Codec.Encode(TypeAssessBR, 1, resp)
		if err != nil {
			b.Fatal(err)
		}
		perVerdict := float64(len(env.Payload)) / float64(shape.servers)
		b.Run(fmt.Sprintf("encode/%dx%d", shape.servers, suffixes), func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, len(env.Payload))
			for i := 0; i < b.N; i++ {
				buf, _, _, _ = appendBinaryPayload(buf[:0], resp)
			}
			b.ReportMetric(perVerdict, "B/verdict")
		})
		b.Run(fmt.Sprintf("decode/%dx%d", shape.servers, suffixes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var out AssessBatchResponse
				if err := DecodePayload(env, &out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(perVerdict, "B/verdict")
		})
	}
}
