package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// ask sends payload up the connection, from the client to the server, as
// repclient and repserver run it: the client encodes and writes the frame
// and commits it, the server reads it and commits it before it decodes it.
// The frame must decode to payload; ask returns it as the client wrote it.
func (c *connection) ask(t testing.TB, typ MsgType, id uint64, payload any) Envelope {
	t.Helper()
	env, err := c.client.Encode(typ, id, payload)
	if err != nil || !env.Binary {
		t.Fatalf("%s: encode: binary=%v err=%v", typ, env.Binary, err)
	}
	if err := WriteV2(&c.up, env); err != nil {
		t.Fatal(err)
	}
	if err := c.client.Commit(&env); err != nil {
		t.Fatalf("%s: commit at the client: %v", typ, err)
	}
	got, err := ReadV2(&c.up)
	if err == nil {
		err = c.server.Commit(&got)
	}
	if err != nil {
		t.Fatalf("%s: commit at the server: %v", typ, err)
	}
	out := newPayload(payload)
	if err := c.server.DecodePayload(got, out); err != nil {
		t.Fatalf("%s: decode at the server: %v", typ, err)
	}
	if back := reflect.ValueOf(out).Elem().Interface(); !reflect.DeepEqual(back, payload) {
		t.Fatalf("%s changed on the connection", typ)
	}
	return env
}

// answer sends payload down the connection and returns the frame as the
// server wrote it; the client must decode it to want.
func (c *connection) answer(t testing.TB, typ MsgType, id uint64, payload, want any) Envelope {
	t.Helper()
	env := c.send(t, typ, id, payload)
	out := newPayload(want)
	if err := c.client.DecodePayload(c.receive(t), out); err != nil {
		t.Fatalf("%s: decode at the client: %v", typ, err)
	}
	if back := reflect.ValueOf(out).Elem().Interface(); !reflect.DeepEqual(back, want) {
		t.Fatalf("%s changed on the connection", typ)
	}
	return env
}

// TestConnectionNameBytes pins what a warm connection spends per item once
// every name it carries is bound, on three loads of the benchmark's:
//
//   - assess_wide: 256 servers of 200 records, an assess.batch of all of
//     them in a new random order each frame, and its response, whose
//     server names — 15.1 of 24.2 B an item at revision 14 — are refs;
//   - mixed_skew: one assess round trip a server, 16 servers of 1000
//     records, each a record longer than at its verdict before, whose
//     request server, Assessment.Server and tester and trust-function names
//     were 30 of its bytes;
//   - ingest_durable: a 64-record submit.batch over 64 of 256 servers and
//     100 clients, whose id intros were 12.06 of its 15.52 B a record.
//
// The first frames bind the names; each shape is measured after its warm-up.
func TestConnectionNameBytes(t *testing.T) {
	tp, err := core.DefaultSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("assess.batch", func(t *testing.T) {
		hists := benchHistories(t, MaxAssessBatch, 200)
		rng := stats.NewRNG(55)
		c := newConnection()
		total, frames := 0, 8
		for f := range frames + 1 {
			var req AssessBatchRequest
			var sent, want AssessBatchResponse
			for _, i := range rng.Perm(len(hists)) {
				s, r := judge(t, tp, hists[i])
				req.Servers = append(req.Servers, hists[i].Server())
				sent.Items, want.Items = append(sent.Items, s), append(want.Items, r)
			}
			req.Threshold = 0.9
			up := c.ask(t, TypeAssessB, uint64(2*f+1), req)
			down := c.answer(t, TypeAssessBR, uint64(2*f+1), sent, want)
			if f > 0 {
				if up.Names || down.Names {
					t.Fatalf("frame %d binds names the connection carried", f)
				}
				total += len(up.Payload) + len(down.Payload)
			}
		}
		per := float64(total) / float64(frames*MaxAssessBatch)
		t.Logf("assess.batch of 256 × 200 records, request and response: %.2f B per item", per)
		if most := 12.5; per > most {
			t.Errorf("%.2f B per item, want <= %.1f", per, most)
		}
	})
	t.Run("assess", func(t *testing.T) {
		hists := benchHistories(t, 16, 1000)
		rng := stats.NewRNG(56)
		c := newConnection()
		total, trips, id := 0, 0, uint64(0)
		for round := range 4 {
			for _, h := range hists {
				grow(t, h, rng.Bernoulli(h.GoodRatio()))
				sent, want := judge(t, tp, h)
				id++
				up := c.ask(t, TypeAssess, id, AssessRequest{Server: h.Server(), Threshold: 0.9})
				down := c.answer(t, TypeAssessR, id, sent.AssessResponse, want.AssessResponse)
				if round > 0 {
					total += len(up.Payload) + len(down.Payload)
					trips++
				}
			}
		}
		per := float64(total) / float64(trips)
		t.Logf("assess round trip on 16 × 1000 records, one record more each: %.1f B", per)
		if most := 28.0; per > most {
			t.Errorf("%.1f B a round trip, want <= %.0f", per, most)
		}
	})
	t.Run("submit.batch", func(t *testing.T) {
		rng := stats.NewRNG(57)
		c := newConnection()
		total, frames, at := 0, 20, int64(0)
		for f := range 40 + frames {
			var req BatchRequest
			for _, s := range rng.Sample(256, 64) {
				at += 1 + int64(rng.Intn(3))
				req.Records = append(req.Records, feedback.Feedback{
					Time:   time.Unix(1000, at*int64(time.Millisecond)).UTC(),
					Server: feedback.EntityID(fmt.Sprint("srv-", s)), Client: feedback.EntityID(fmt.Sprint("cli-", rng.Intn(100))),
					Rating: feedback.Rating(1 + rng.Intn(2)),
				})
			}
			env := c.ask(t, TypeSubmitB, uint64(f+1), req)
			if f >= 40 {
				total += len(env.Payload)
			}
		}
		per := float64(total) / float64(frames*64)
		t.Logf("submit.batch of 64 records over 256 servers and 100 clients: %.2f B per record", per)
		if most := 6.5; per > most {
			t.Errorf("%.2f B per record, want <= %.1f", per, most)
		}
	})
}

// TestConnectionNamesConcurrent: encoders that race on one connection's
// table while a writer commits the frames they hand it — some encoded and
// never written, the rest written in the order they arrive — bind each name
// before any frame refers to it without the binding, and every frame
// written decodes at the reader to what was sent.
func TestConnectionNamesConcurrent(t *testing.T) {
	c := newConnection()
	type frame struct {
		env Envelope
		req AssessBatchRequest
	}
	const workers, each = 8, 40
	frames := make(chan frame)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				req := AssessBatchRequest{Threshold: 0.5}
				for j := range 6 {
					req.Servers = append(req.Servers, feedback.EntityID(fmt.Sprint("s", (w+i+j*7)%50)))
				}
				env, err := c.client.Encode(TypeAssessB, uint64(w*each+i+1), req)
				if err != nil {
					t.Error(err)
					return
				}
				if i%5 != 3 { // every fifth cancelled after its encode: never written
					frames <- frame{env, req}
				}
			}
		}()
	}
	go func() { wg.Wait(); close(frames) }()
	var sent []AssessBatchRequest
	for f := range frames {
		if err := WriteV2(&c.up, f.env); err != nil {
			t.Fatal(err)
		}
		if err := c.client.Commit(&f.env); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, f.req)
	}
	for i, want := range sent {
		env, err := ReadV2(&c.up)
		if err == nil {
			err = c.server.Commit(&env)
		}
		var got AssessBatchRequest
		if err == nil {
			err = c.server.DecodePayload(env, &got)
		}
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}

// appendLiteral appends name as a ref spells a name the table holds no slot
// for: a 0 and the string.
func appendLiteral(buf []byte, name string) []byte { return appendString(append(buf, 0), name) }

// nameSection is the bytes of a name section binding each slot to its name,
// the slots ascending.
func nameSection(binds ...nameBinding) []byte {
	sec := binary.AppendUvarint(nil, uint64(len(binds)))
	next := uint32(0)
	for _, b := range binds {
		sec = binary.AppendUvarint(sec, uint64(b.slot-next))
		sec = appendString(sec, b.name)
		next = b.slot + 1
	}
	return sec
}

// assessRef is an assess request's payload on a connection, its server the
// name slot holds.
func assessRef(slot uint32) []byte {
	return appendFloat(binary.AppendUvarint(nil, uint64(slot)+1), 0.9)
}

// nameFrame is a binary assess request whose payload is the parts given,
// headed by a name section when names says so.
func nameFrame(names bool, payload ...[]byte) Envelope {
	return Envelope{Type: TypeAssess, ID: 1, Binary: true, Names: names, Payload: slices.Concat(payload...)}
}

// hostileNames is the assess request a client writes first on a connection,
// binding slot 0 to "srv-a", and the frames a reader must refuse after it,
// each breaking the connection, but for the one a refusal needs a frame
// committed before another to show (TestConnectionRefusesHostileNames).
func hostileNames(tb testing.TB) (valid Envelope, hostile map[string]Envelope) {
	tb.Helper()
	valid = nameFrame(true, nameSection(nameBinding{0, "srv-a"}), assessRef(0))
	c := newConnection()
	if env := c.ask(tb, TypeAssess, 1, AssessRequest{Server: "srv-a", Threshold: 0.9}); !bytes.Equal(env.Payload, valid.Payload) || !env.Names {
		tb.Fatalf("a client writes %x, not %x", env.Payload, valid.Payload)
	}
	big := strings.Repeat("n", maxNameBytes/4)
	return valid, map[string]Envelope{
		"a ref to an unbound slot":     nameFrame(false, assessRef(3)),
		"a slot rebound to a new name": nameFrame(true, nameSection(nameBinding{0, "srv-b"}), assessRef(0)),
		"a slot past the bound":        nameFrame(true, nameSection(nameBinding{maxNames, "srv-b"}), assessRef(maxNames)),
		"an empty name":                nameFrame(true, nameSection(nameBinding{1, ""}), assessRef(1)),
		"names past the bytes bound": nameFrame(true, nameSection(nameBinding{1, big + "1"}, nameBinding{2, big + "2"},
			nameBinding{3, big + "3"}, nameBinding{4, big + "4"}), assessRef(4)),
		"a binding no ref reads":       nameFrame(true, nameSection(nameBinding{1, "srv-b"}), assessRef(0)),
		"a section of no bindings":     nameFrame(true, []byte{0}, assessRef(0)),
		"a section on a JSON payload":  {Type: TypeAssess, ID: 1, Names: true, Payload: []byte(`{"server":"srv-a","threshold":0.9}`)},
		"a section on a submit.resp":   {Type: TypeSubmitR, ID: 1, Binary: true, Names: true, Payload: slices.Concat(nameSection(nameBinding{1, "srv-b"}), []byte{1})},
		"a section on no section flag": nameFrame(false, nameSection(nameBinding{1, "srv-b"}), assessRef(1)),
	}
}

// TestConnectionRefusesHostileNames: a connection's reader refuses every
// name section and ref no encoder writes — at Commit, or at Decode for a ref
// nothing bound, also one bound by a frame committed after the ref's own —
// and the refusal breaks the connection: the valid frame after it is
// refused too. A name section on a frame that stands alone, on a bridged
// connection or on a JSON payload is refused as well.
func TestConnectionRefusesHostileNames(t *testing.T) {
	valid, hostile := hostileNames(t)
	hostile["a ref to a slot bound after"] = Envelope{}
	for name, env := range hostile {
		conn := CodecFor(VersionV2)
		first := valid
		if err := conn.Commit(&first); err != nil {
			t.Fatal(err)
		}
		if err := conn.DecodePayload(first, new(AssessRequest)); err != nil {
			t.Fatal(err)
		}
		var err error
		if name == "a ref to a slot bound after" {
			// A frame committed before the one that binds slot 2, which
			// refers to it, decodes after it.
			early := nameFrame(false, assessRef(0))
			later := nameFrame(true, nameSection(nameBinding{2, "srv-c"}), assessRef(2))
			if conn.Commit(&early) != nil || conn.Commit(&later) != nil {
				t.Fatal("a valid frame refused")
			}
			early.Payload = assessRef(2)
			err = conn.DecodePayload(early, new(AssessRequest))
		} else if err = conn.Commit(&env); err == nil {
			err = conn.DecodePayload(env, connPayload(env.Type))
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		t.Logf("%s: %v", name, err)
		next := valid
		if conn.Commit(&next) == nil && conn.DecodePayload(next, new(AssessRequest)) == nil {
			t.Errorf("%s: refused, then a valid frame accepted", name)
		}
	}
	// A frame that stands alone, and a bridged connection, have no names
	// to bind.
	if err := V2Codec.DecodePayload(valid, new(AssessRequest)); err == nil {
		t.Error("V2Codec decoded a name section")
	}
	if err := BridgeCodec.Commit(&valid); err == nil {
		t.Error("the bridge committed a name section")
	}
	json := hostile["a section on a JSON payload"]
	if err := BridgeCodec.Commit(&json); err == nil {
		t.Error("the bridge committed a name section on a JSON payload")
	}
	if err := BridgeCodec.DecodePayload(json, new(AssessRequest)); err == nil {
		t.Error("the bridge decoded a JSON payload with a name section")
	}
}

// TestMirrorResetSpellings: a mirror row that empties its slot writes a
// history whose bad records are rare as the gaps between them, and one
// whose records are as often bad as good raw, a bit a record, which the
// gaps would not beat; the reader's slot holds the history's bits either
// way.
func TestMirrorResetSpellings(t *testing.T) {
	const n = 4000
	for _, tc := range []struct {
		p           float64
		least, most int // the section's bytes
	}{{0.99, 0, n / 8 / 3}, {0.5, n / 8, n/8 + 8}} {
		h := honestHistory(t, "srv", n, tc.p, 7)
		d := loneDict()
		d.mirRows = append(d.mirRows, mirrorRow{reset: true, n: n, server: h.Server(), lineage: h.Lineage(), h: h})
		sec := d.appendMirror(nil, new(sections))
		d.put()
		r, f := &breader{buf: sec}, new(sections)
		err := r.mirrorSection(&newConnState(connLimits).in, f)
		r.release()
		if err != nil || len(r.buf) != 0 {
			t.Fatalf("p = %.2f: %v, %d bytes left", tc.p, err, len(r.buf))
		}
		for j := range n {
			if got := f.views[0].GoodInRange(j, j+1) == 1; got != h.RatingAt(j).Good() {
				t.Fatalf("p = %.2f: record %d read good=%v", tc.p, j, got)
			}
		}
		if len(sec) < tc.least || len(sec) > tc.most {
			t.Errorf("p = %.2f: a section of %d B for %d records, want %d to %d B", tc.p, len(sec), n, tc.least, tc.most)
		}
	}
}
