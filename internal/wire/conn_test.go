package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
)

// connection is the two ends of one binary connection as repserver and
// repclient run them: the server encodes against its codec's bindings and
// commits a frame once it is written, the client commits a frame as it
// reads it and decodes it later, on any goroutine.
type connection struct {
	server, client Codec
	wire           bytes.Buffer
}

func newConnection() *connection {
	return &connection{server: CodecFor(VersionV2), client: CodecFor(VersionV2)}
}

// send encodes payload and writes it, committing it at the server's end.
func (c *connection) send(t testing.TB, typ MsgType, id uint64, payload any) Envelope {
	t.Helper()
	env, err := c.server.Encode(typ, id, payload)
	if err != nil || !env.Binary {
		t.Fatalf("%s: encode: binary=%v err=%v", typ, env.Binary, err)
	}
	if err := WriteV2(&c.wire, env); err != nil {
		t.Fatal(err)
	}
	if err := c.server.Commit(env); err != nil {
		t.Fatalf("%s: commit at the server: %v", typ, err)
	}
	return env
}

// receive reads the next frame and commits it at the client's end.
func (c *connection) receive(t testing.TB) Envelope {
	t.Helper()
	env, err := ReadV2(&c.wire)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.client.Commit(env); err != nil {
		t.Fatalf("%s: commit at the client: %v", env.Type, err)
	}
	return env
}

// TestConnectionBindingsStream: verdicts cross one connection bit for bit —
// single and batch responses, a forwarded batch, keyed tables, familywise
// tables that fall back to runs, rows past the calibrated windows — while
// each end commits every frame at its ordered point, callers decode their
// frames on goroutines of their own as later frames commit, and a handler
// the deadline abandoned encodes against the server's bindings meanwhile.
// A frame encoded and never written commits nothing: the frame after it
// binds the same keys again, and everything after still decodes.
func TestConnectionBindingsStream(t *testing.T) {
	tp, err := core.DefaultSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	deep := benchMix(t, tp, 24, 1000)
	wide := benchMix(t, tp, 16, 200)
	family, err := behavior.NewMulti(behavior.Config{Calibrator: testCalibrator(), FamilywiseCorrection: true})
	if err != nil {
		t.Fatal(err)
	}
	var odd []AssessBatchItem // familywise tables, a chain twice, rows past 4096 windows
	for _, tables := range keyedSeedFrames(t) {
		for _, rows := range tables {
			a := testAssessment()
			a.Server, a.Tester, a.Verdict.Suffixes = feedback.EntityID(fmt.Sprint("odd-", len(odd))), family.Name(), rows
			odd = append(odd, AssessBatchItem{Server: a.Server, AssessResponse: AssessResponse{Assessment: a}})
		}
	}
	type frame struct {
		typ     MsgType
		payload any
	}
	var frames []frame
	for _, item := range deep[:8] {
		frames = append(frames, frame{TypeAssessR, item.AssessResponse})
	}
	frames = append(frames,
		frame{TypeAssessBR, AssessBatchResponse{Items: deep[8:16]}},
		frame{TypeFwdAssessBR, FwdAssessBatchResponse{Node: "n2", Items: deep[16:]}},
		frame{TypeAssessBR, AssessBatchResponse{Items: odd}},
		frame{TypeAssessR, deep[0].AssessResponse},
	)
	abandoned := len(frames)
	frames = append(frames, frame{TypeAssessBR, AssessBatchResponse{Items: wide}})
	for _, item := range wide[:4] {
		frames = append(frames, frame{TypeAssessR, item.AssessResponse})
	}

	c := newConnection()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // encodes that are never written, as the frames commit
		defer wg.Done()
		for range 50 {
			if _, err := c.server.Encode(TypeAssessBR, 999, AssessBatchResponse{Items: deep}); err != nil {
				t.Error(err)
			}
		}
	}()
	var got []Envelope
	for i, f := range frames {
		if i == abandoned {
			// A handler the deadline abandoned: encoded, never written.
			lost, err := c.server.Encode(f.typ, 999, f.payload)
			if err != nil || !lost.Bindings {
				t.Fatalf("the abandoned frame: bindings=%v, %v", lost.Bindings, err)
			}
			sent := c.send(t, f.typ, uint64(i+1), f.payload)
			if !sent.Bindings || !bytes.Equal(sent.Payload, lost.Payload) {
				t.Fatalf("the frame after an abandoned one binds again: bindings=%v, %d B where the abandoned had %d", sent.Bindings, len(sent.Payload), len(lost.Payload))
			}
		} else {
			c.send(t, f.typ, uint64(i+1), f.payload)
		}
		env := c.receive(t)
		got = append(got, env)
		wg.Add(1)
		go func(i int, env Envelope) {
			defer wg.Done()
			out := newPayload(frames[i].payload)
			if err := c.client.DecodePayload(env, out); err != nil {
				t.Errorf("frame %d (%s): %v", i, frames[i].typ, err)
			} else if back := reflect.ValueOf(out).Elem().Interface(); !reflect.DeepEqual(back, frames[i].payload) {
				t.Errorf("frame %d (%s) changed on the connection", i, frames[i].typ)
			}
		}(i, env)
	}
	wg.Wait()
	if repeat := got[abandoned-1]; repeat.Bindings {
		t.Errorf("an assessment sent again binds again: %d B", len(repeat.Payload))
	}
}

// TestConnectionFrameBytes pins the assess.resp a node sends a client that
// asks before every transaction, mixed_skew's load: one server's verdict
// over 1000 records a frame, the benchmark's mix of histories, 100 frames on
// one connection. The first is byte for byte the frame alone, which
// TestAssessBatchFrameBytes holds to revision 12's size (190.0 B against
// 202.0 B at 1000 records); the second to the hundredth average 77.7 B,
// binding only the grid keys no frame before them did.
func TestConnectionFrameBytes(t *testing.T) {
	tp, err := core.DefaultSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := newConnection()
	total := 0
	for i, item := range benchMix(t, tp, 100, 1000) {
		env := c.send(t, TypeAssessR, uint64(i+1), item.AssessResponse)
		var back AssessResponse
		if err := c.client.DecodePayload(c.receive(t), &back); err != nil || !reflect.DeepEqual(back, item.AssessResponse) {
			t.Fatalf("frame %d: %v", i, err)
		}
		if alone, err := V2Codec.Encode(TypeAssessR, uint64(i+1), item.AssessResponse); err != nil {
			t.Fatal(err)
		} else if i == 0 && !bytes.Equal(env.Payload, alone.Payload) {
			t.Fatalf("the first frame on a connection is %d B, not the %d B it is alone", len(env.Payload), len(alone.Payload))
		}
		if i > 0 {
			total += len(env.Payload)
		}
	}
	per := float64(total) / 99
	t.Logf("assess.resp 2..100 on one connection: %.1f B per frame", per)
	if most := 86.0; per > most {
		t.Errorf("%.1f B per frame, want <= %.0f", per, most)
	}
}

// hostileFrames is a valid keyed assess.resp and the frames a connection's
// reader must refuse after it, each breaking the connection: a binding of a
// slot past the grid, a rebinding of the valid frame's slot to other bits,
// a keyed row on a slot nothing bound, and a section longer than the grid.
func hostileFrames(tb testing.TB) (valid Envelope, hostile map[string]Envelope) {
	tb.Helper()
	valid, err := V2Codec.Encode(TypeAssessR, 1, AssessResponse{Assessment: testAssessment()})
	if err != nil || !valid.Bindings {
		tb.Fatalf("a keyed frame: bindings=%v, %v", valid.Bindings, err)
	}
	// The section binds the two rows' slots to 0.2, then the response
	// follows.
	rows := testAssessment().Verdict.Suffixes
	binds := map[uint32]float64{rowSlot(&rows[0]): 0.2, rowSlot(&rows[1]): 0.2}
	sec := bindingSection(binds)
	if !bytes.HasPrefix(valid.Payload, sec) {
		tb.Fatalf("payload %x, want the section %x first", valid.Payload, sec)
	}
	rest := valid.Payload[len(sec):]
	with := func(sec []byte) Envelope {
		env := valid
		env.Payload = append(append([]byte(nil), sec...), rest...)
		return env
	}
	binds[rowSlot(&rows[0])] = 0.3
	rebound := with(bindingSection(binds))
	// gridSlots + 1 bindings of 0, each one slot on from the one before.
	long := slices.Concat(binary.AppendUvarint(nil, uint64(gridSlots+1)), bytes.Repeat([]byte{8}, gridSlots+1))
	// The last slot bound to 0.2, then the one past it to the same bits.
	past := slices.Concat([]byte{2, farStep * forms}, binary.AppendUvarint(nil, uint64(gridSlots)), appendFloat(nil, 0.2), []byte{8})
	unbound := valid
	unbound.Payload, unbound.Bindings = rest, false
	return valid, map[string]Envelope{
		"a slot past the grid":             with(past),
		"a bound slot bound to other bits": rebound,
		"a keyed row on an unbound slot":   unbound,
		"a section longer than the grid":   with(long),
	}
}

// TestConnectionRefusesHostileBindings: each hostile frame is refused — at
// Commit, or at Decode for a keyed row no binding backs — and breaks the
// connection: a valid frame after it is refused too.
func TestConnectionRefusesHostileBindings(t *testing.T) {
	valid, hostile := hostileFrames(t)
	for name, env := range hostile {
		conn := CodecFor(VersionV2)
		if strings.Contains(name, "other bits") {
			if err := conn.Commit(valid); err != nil {
				t.Fatal(err)
			}
		}
		err := conn.Commit(env)
		if err == nil {
			err = conn.DecodePayload(env, new(AssessResponse))
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if cerr, derr := conn.Commit(valid), conn.DecodePayload(valid, new(AssessResponse)); cerr == nil || derr == nil {
			t.Errorf("%s: refused (%v), then a valid frame: commit %v, decode %v", name, err, cerr, derr)
		}
	}
}

// newVerdictPayload returns a pointer to the payload of a frame of type t,
// one of the types that carry verdicts.
func newVerdictPayload(t MsgType) any {
	switch t {
	case TypeAssessR:
		return new(AssessResponse)
	case TypeAssessBR:
		return new(AssessBatchResponse)
	}
	return new(FwdAssessBatchResponse)
}

// FuzzConnectionFrames feeds three payloads, each a verdict frame of the
// type and section flag kinds gives it, into one connection's reader,
// committing each and decoding it: no panic, no frame allocating more than
// TestVerdictRowsPerFrame's bound, and a connection that refused a frame
// refuses every frame after it.
func FuzzConnectionFrames(f *testing.F) {
	types := []MsgType{TypeAssessR, TypeAssessBR, TypeFwdAssessBR}
	// kinds' bit i is frame i's section flag, bits 4+2i and 5+2i its type.
	add := func(envs ...Envelope) {
		var kinds uint16
		var payloads [3][]byte
		for i, env := range envs {
			payloads[i] = env.Payload
			if env.Bindings {
				kinds |= 1 << i
			}
			kinds |= uint16(slices.Index(types, env.Type)) << (4 + 2*i)
		}
		f.Add(kinds, payloads[0], payloads[1], payloads[2])
	}
	valid, hostile := hostileFrames(f)
	for _, env := range hostile {
		add(valid, env, valid)
	}
	// Keyed frames on one connection, later ones leaning on earlier ones'
	// bindings: assess.resp, assess.batch.resp, then a fwd.assess.batch.resp.
	c := newConnection()
	var keyed []Envelope
	for i, tables := range keyedSeedFrames(f) {
		var items []AssessBatchItem
		for j, rows := range tables {
			a := testAssessment()
			a.Server, a.Verdict.Suffixes = feedback.EntityID(fmt.Sprint("s", j)), rows
			items = append(items, AssessBatchItem{Server: a.Server, AssessResponse: AssessResponse{Assessment: a}})
		}
		payload := []any{items[0].AssessResponse, AssessBatchResponse{Items: items}, FwdAssessBatchResponse{Node: "n2", Items: items}}[i%3]
		keyed = append(keyed, c.send(f, types[i%3], uint64(i+1), payload))
	}
	add(keyed...)
	add(valid, keyed[1], keyed[2])
	f.Fuzz(func(t *testing.T, kinds uint16, first, second, third []byte) {
		conn := CodecFor(VersionV2)
		refused := false
		for i, payload := range [][]byte{first, second, third} {
			typ := types[int(kinds>>(4+2*i)&3)%3]
			env := Envelope{Type: typ, ID: uint64(i + 1), Payload: payload, Binary: true, Bindings: kinds>>i&1 != 0}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := conn.Commit(env)
			if err == nil {
				err = conn.DecodePayload(env, newVerdictPayload(typ))
			}
			runtime.ReadMemStats(&after)
			if refused && err == nil {
				t.Fatalf("frame %d accepted on a connection that refused one", i)
			}
			refused = refused || err != nil
			if got, most := after.TotalAlloc-before.TotalAlloc, uint64(maxFrameRows)*48+1<<20; got > most {
				t.Fatalf("frame %d of %d B allocated %d B, want <= %d", i, len(payload), got, most)
			}
		}
	})
}
