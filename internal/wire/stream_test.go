package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"strings"
	"testing"
	"time"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// The SHA-256 of every frame TestConnectionStreamGolden's stream writes, in
// write order, down the connection and up it.
const (
	streamDownSHA256 = "46c0f22d314dab951b0a8586678e9519df102117401543bf3e2af92f861a9a33"
	streamUpSHA256   = "22c4582b2198d8d59f6d2ed87669a480bc4b2ba6d1af85b540081fbdaf9d2fde"
)

// TestConnectionStreamGolden pins the bytes of a whole warm connection: a
// seeded stream of frames each way over one CodecFor(VersionV2) pair, every
// frame decoded at the far end to what was sent. Up go assess, assess.batch
// and submit.batch requests, the batches introducing clients; down go their
// answers, verdicts over histories that grow between frames. The stream
// holds mirror resets in both spellings (a rebuilt, mostly good history as
// gaps, a history as often bad as good raw), evictions at the mirror's slot
// bound and at its bits bound, client names that ride literal past the name
// table's bytes bound, and a frame each way encoded and never written.
// A change that moves a byte anywhere in the stream changes a digest.
func TestConnectionStreamGolden(t *testing.T) {
	tp, err := core.DefaultSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := newConnection()
	down, up := sha256.New(), sha256.New()
	frames := [2]int{}
	// write writes env to h and commits it at its writer; read reads the
	// frame back, commits it at its reader and decodes it to want.
	write := func(h hash.Hash, n *int, writer, reader Codec, env Envelope, want any) {
		t.Helper()
		if !env.Binary {
			t.Fatalf("%s: a JSON payload", env.Type)
		}
		var buf bytes.Buffer
		if err := WriteV2(&buf, env); err != nil {
			t.Fatal(err)
		}
		h.Write(buf.Bytes())
		*n++
		if err := writer.Commit(&env); err != nil {
			t.Fatalf("%s: commit at the writer: %v", env.Type, err)
		}
		got, err := ReadV2(&buf)
		if err == nil {
			err = reader.Commit(&got)
		}
		out := newPayload(want)
		if err == nil {
			err = reader.DecodePayload(got, out)
		}
		if err != nil || !reflect.DeepEqual(reflect.ValueOf(out).Elem().Interface(), want) {
			t.Fatalf("%s: %v", env.Type, err)
		}
	}
	id := uint64(0)
	ask := func(typ MsgType, req any) {
		t.Helper()
		id++
		env, err := c.client.Encode(typ, id, req)
		if err != nil {
			t.Fatal(err)
		}
		write(up, &frames[1], c.client, c.server, env, req)
	}
	answer := func(typ MsgType, sent, want any) {
		t.Helper()
		env, err := c.server.Encode(typ, id, sent)
		if err != nil {
			t.Fatal(err)
		}
		write(down, &frames[0], c.server, c.client, env, want)
	}
	assess := func(hs ...*feedback.History) {
		t.Helper()
		req := AssessBatchRequest{Threshold: 0.9}
		var sent, want AssessBatchResponse
		for _, h := range hs {
			s, r := judge(t, tp, h)
			req.Servers = append(req.Servers, h.Server())
			sent.Items, want.Items = append(sent.Items, s), append(want.Items, r)
		}
		if len(hs) == 1 {
			ask(TypeAssess, AssessRequest{Server: req.Servers[0], Threshold: req.Threshold})
			answer(TypeAssessR, sent.Items[0].AssessResponse, want.Items[0].AssessResponse)
			return
		}
		ask(TypeAssessB, req)
		answer(TypeAssessBR, sent, want)
	}
	submit := func(recs []feedback.Feedback) {
		t.Helper()
		ask(TypeSubmitB, BatchRequest{Records: recs})
		items := make([]SubmitBatchItem, len(recs))
		for i := range items {
			items[i].Stored = true
		}
		resp := NewBatchResponse(items)
		answer(TypeSubmitBR, resp, resp)
	}

	rng := stats.NewRNG(2008)
	hot := make([]*feedback.History, 24)
	for i := range hot {
		p := 0.9 + 0.09*rng.Float64()
		if i == 5 {
			p = 0.5 // its resets are written raw
		}
		hot[i] = honestHistory(t, feedback.EntityID(fmt.Sprint("hot-", i)), 200+rng.Intn(200), p, int64(i))
	}
	at := time.Unix(1_000_000, 0).UTC()
	for f := range 200 {
		for _, h := range hot {
			if rng.Bernoulli(0.3) {
				grow(t, h, rng.Bernoulli(h.GoodRatio()))
			}
		}
		switch f % 4 {
		case 0:
			var hs []*feedback.History
			for _, i := range rng.Sample(len(hot), 8) {
				hs = append(hs, hot[i])
			}
			assess(hs...)
		case 1, 3:
			i := rng.Intn(len(hot))
			if f%20 == 3 {
				hot[i] = rebuilt(t, hot[i])
			}
			assess(hot[i])
		case 2:
			var recs []feedback.Feedback
			for range 16 {
				at = at.Add(time.Duration(1+rng.Intn(5)) * time.Millisecond)
				recs = append(recs, feedback.Feedback{Time: at, Rating: feedback.Rating(1 + rng.Intn(2)),
					Server: hot[rng.Intn(len(hot))].Server(), Client: feedback.EntityID(fmt.Sprint("cli-", rng.Intn(40)))})
			}
			submit(recs)
		}
		if f == 50 {
			// A request a caller gave up on and the answer of a handler
			// the deadline abandoned: encoded, never written.
			if _, err := c.client.Encode(TypeAssessB, 999, AssessBatchRequest{Servers: []feedback.EntityID{"lost-1", hot[0].Server()}, Threshold: 0.9}); err != nil {
				t.Fatal(err)
			}
			lost, _ := judge(t, tp, rebuilt(t, hot[1]))
			if _, err := c.server.Encode(TypeAssessBR, 999, AssessBatchResponse{Items: []AssessBatchItem{lost}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The mirror's slot bound: more servers than it has slots, 256 a frame.
	for lo := 0; lo < maxMirrorSlots+256; lo += MaxAssessBatch {
		hs := make([]*feedback.History, MaxAssessBatch)
		for i := range hs {
			hs[i] = honestHistory(t, feedback.EntityID(fmt.Sprint("wide-", lo+i)), 60, 0.95, int64(lo+i))
		}
		assess(hs...)
	}
	// Its bits bound: long histories, 16 a frame.
	for lo := 0; lo < maxMirrorBits/20000+16; lo += 16 {
		hs := make([]*feedback.History, 16)
		for i := range hs {
			hs[i] = honestHistory(t, feedback.EntityID(fmt.Sprint("deep-", lo+i)), 20000, 0.97, int64(lo+i))
		}
		assess(hs...)
	}
	// The name table's bytes bound: clients with names of 1,000 bytes.
	for f := range 12 {
		var recs []feedback.Feedback
		for i := range 32 {
			at = at.Add(time.Millisecond)
			recs = append(recs, feedback.Feedback{Time: at, Rating: feedback.Positive, Server: hot[i%len(hot)].Server(),
				Client: feedback.EntityID(fmt.Sprintf("%04d-%s", f*32+i, strings.Repeat("n", 995)))})
		}
		submit(recs)
	}
	got := [2]string{hex.EncodeToString(down.Sum(nil)), hex.EncodeToString(up.Sum(nil))}
	t.Logf("%d frames down, %d up: sha256 %s down, %s up", frames[0], frames[1], got[0], got[1])
	if got != [2]string{streamDownSHA256, streamUpSHA256} {
		t.Errorf("the stream's bytes moved: sha256 %s down, %s up; pinned %s and %s", got[0], got[1], streamDownSHA256, streamUpSHA256)
	}
}

// rebuilt returns h rebuilt around a bad record older than its first, as
// the store rebuilds a history for an out-of-order report: a new lineage.
func rebuilt(t testing.TB, h *feedback.History) *feedback.History {
	t.Helper()
	early := h.At(0)
	early.Time, early.Client, early.Rating = early.Time.Add(-time.Second), "c-early", feedback.Negative
	out := feedback.NewHistory(h.Server())
	for _, r := range append([]feedback.Feedback{early}, h.Records()...) {
		if err := out.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return out
}
