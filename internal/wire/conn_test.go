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
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// connection is the two ends of one binary connection as repserver and
// repclient run them: the server encodes against its codec's bindings and
// commits a frame once it is written, the client commits a frame as it
// reads it and decodes it later, on any goroutine.
type connection struct {
	server, client Codec
	wire           bytes.Buffer // down, server to client
	up             bytes.Buffer // client to server
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
	if err := c.server.Commit(&env); err != nil {
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
	if err := c.client.Commit(&env); err != nil {
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
// one connection. The first is the frame alone — a connection of its own,
// 193 B at 1000 records: the 190 B of a frame that spelled its names bare
// and a literal's 0 byte for each — but for its three names, server, tester
// and trust function,
// each of which crosses once, in the name section, for a slot distance
// more than its literal costs, the section's count one byte more; the
// second to the hundredth average 68.7 B, binding only
// the grid keys no frame before them did, each binding its server's name,
// new to the connection, and writing the tester and trust function as refs
// (77.7 B at revision 14, which spelled them).
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
		} else if names := 3; i == 0 && (!env.Names || len(env.plan.names) != names || len(env.Payload) != len(alone.Payload)+1+names) {
			t.Fatalf("the first frame on a connection is %d B binding %d names, not the %d B it is alone and 1 + 1 B for each of %d names", len(env.Payload), len(env.plan.names), len(alone.Payload), names)
		}
		if i > 0 {
			total += len(env.Payload)
		}
	}
	per := float64(total) / 99
	t.Logf("assess.resp 2..100 on one connection: %.1f B per frame", per)
	if most := 75.0; per > most {
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
			if err := conn.Commit(&valid); err != nil {
				t.Fatal(err)
			}
		}
		err := conn.Commit(&env)
		if err == nil {
			err = conn.DecodePayload(env, new(AssessResponse))
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if cerr, derr := conn.Commit(&valid), conn.DecodePayload(valid, new(AssessResponse)); cerr == nil || derr == nil {
			t.Errorf("%s: refused (%v), then a valid frame: commit %v, decode %v", name, err, cerr, derr)
		}
	}
}

// connPayload returns a pointer to the payload of a frame of type t, one
// of the types whose binary payloads carry names or verdicts.
func connPayload(t MsgType) any {
	switch t {
	case TypeFwdAssessB:
		return new(FwdAssessBatchRequest)
	case TypeFwdAssessBR:
		return new(FwdAssessBatchResponse)
	}
	return fuzzPayloadDest(t)
}

// FuzzConnectionFrames feeds three payloads, each a frame of the type and
// section flags kinds gives it — a verdict frame a client reads, or a
// request a node reads — into one connection's reader, committing each
// before the one before it decodes, as a client's demux and a node's serve
// loop commit frames ahead of their decoders: no panic, no frame allocating
// more than TestVerdictRowsPerFrame's bound, and a connection that refused a
// frame refuses every frame after it. The seeds mix name, binding and
// mirror sections: requests binding names and leaning on names bound
// before, resets, appends, a frame the writer encoded, never wrote and
// encoded again, and the hostile frames of each kind of section.
func FuzzConnectionFrames(f *testing.F) {
	types := []MsgType{TypeAssessR, TypeAssessBR, TypeFwdAssessBR, TypeAssess, TypeAssessB, TypeSubmitB, TypeSubmit, TypeHistoryR}
	// kinds' bit i is frame i's binding flag, bit 3+i its mirror flag, bit
	// 6+i its name flag, bits 9+3i to 11+3i its type.
	add := func(envs ...Envelope) {
		var kinds uint32
		var payloads [3][]byte
		for i, env := range envs {
			payloads[i] = env.Payload
			for bit, set := range []bool{env.Bindings, env.Mirror, env.Names} {
				if set {
					kinds |= 1 << (3*bit + i)
				}
			}
			kinds |= uint32(max(slices.Index(types, env.Type), 0)) << (9 + 3*i)
		}
		f.Add(kinds, payloads[0], payloads[1], payloads[2])
	}
	valid, hostile := hostileFrames(f)
	for _, env := range hostile {
		add(valid, env, valid)
	}
	// Keyed frames on one connection, later ones leaning on earlier ones'
	// bindings and names: assess.resp, assess.batch.resp, then a
	// fwd.assess.batch.resp.
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
	mirrors, mirrorHostile := mirrorStream(f)
	add(mirrors[:3]...)
	add(mirrors[2:5]...)
	add(mirrors[0], mirrors[3], mirrors[4])
	for _, env := range mirrorHostile {
		if len(env.Payload) < 1<<16 { // not the quarter-megabyte one past the bits bound
			add(mirrors[0], env, mirrors[1])
		}
	}
	// Requests up a connection: a batch binding its servers, a single
	// assess and a submit.batch leaning on them and binding clients.
	recs := []feedback.Feedback{testRecord(1), testRecord(2), testRecord(3)}
	recs[1].Server = "s1"
	asks := []Envelope{
		c.ask(f, TypeAssessB, 1, AssessBatchRequest{Servers: []feedback.EntityID{"s0", "s1", "s2"}, Threshold: 0.9}),
		c.ask(f, TypeAssess, 2, AssessRequest{Server: "s1", Threshold: 0.9}),
		c.ask(f, TypeSubmitB, 3, BatchRequest{Records: recs}),
		c.ask(f, TypeSubmit, 4, SubmitRequest{Feedback: recs[1]}),
	}
	add(asks[:3]...)
	add(asks[0], asks[3], asks[2])
	validName, namesHostile := hostileNames(f)
	for _, env := range namesHostile {
		if env.Binary && len(env.Payload) < 1<<16 {
			add(validName, env, validName)
		}
	}
	f.Fuzz(func(t *testing.T, kinds uint32, first, second, third []byte) {
		conn := CodecFor(VersionV2)
		envs := make([]Envelope, 3)
		refused := false
		step := func(i int, op func(*Envelope) error) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := op(&envs[i])
			runtime.ReadMemStats(&after)
			if refused && err == nil {
				t.Fatalf("frame %d accepted on a connection that refused one", i)
			}
			refused = refused || err != nil
			if got, most := after.TotalAlloc-before.TotalAlloc, uint64(maxFrameRows)*48+1<<20; got > most {
				t.Fatalf("frame %d allocated %d B, want <= %d", i, got, most)
			}
		}
		commit := func(env *Envelope) error { return conn.Commit(env) }
		decode := func(env *Envelope) error { return conn.DecodePayload(*env, connPayload(env.Type)) }
		for i, payload := range [][]byte{first, second, third} {
			envs[i] = Envelope{Type: types[kinds>>(9+3*i)&7], ID: uint64(i + 1), Payload: payload, Binary: true,
				Bindings: kinds>>i&1 != 0, Mirror: kinds>>(3+i)&1 != 0, Names: kinds>>(6+i)&1 != 0}
			step(i, commit)
			if i > 0 {
				step(i-1, decode)
			}
		}
		step(2, decode)
	})
}

// mirrorStream is the frames a writer sends one connection's reader on
// verdicts that mirror: a batch of four servers that carries their bits
// whole, a single verdict after one more record, a batch whose first item
// appends and whose server repeats, a frame encoded, never written and
// encoded again after a server's history was rebuilt (a reset), and a
// verdict on a server the connection has not carried. Each decodes to what
// was sent, after every frame of the stream has committed. hostile is frames a reader must
// refuse after the first, each breaking the connection.
func mirrorStream(tb testing.TB) (frames []Envelope, hostile map[string]Envelope) {
	tb.Helper()
	tp, err := core.DefaultSpec.Build()
	if err != nil {
		tb.Fatal(err)
	}
	hists := benchHistories(tb, 5, 200)
	c := newConnection()
	var want []any
	send := func(typ MsgType, items ...AssessBatchItem) Envelope {
		var sent, read []AssessBatchItem
		for _, item := range items {
			sent = append(sent, item)
			item.Judged = nil
			read = append(read, item)
		}
		var payload, back any = AssessBatchResponse{Items: sent}, AssessBatchResponse{Items: read}
		if typ == TypeAssessR {
			payload, back = sent[0].AssessResponse, read[0].AssessResponse
		}
		env := c.send(tb, typ, uint64(len(frames)+1), payload)
		if !env.Mirror {
			tb.Fatalf("frame %d carries no mirror section", len(frames))
		}
		frames, want = append(frames, c.receive(tb)), append(want, back)
		return env
	}
	item := func(h *feedback.History) AssessBatchItem {
		sent, _ := judge(tb, tp, h)
		return sent
	}
	send(TypeAssessBR, item(hists[0]), item(hists[1]), item(hists[2]), item(hists[3]))
	grow(tb, hists[0], true)
	send(TypeAssessR, item(hists[0]))
	grow(tb, hists[1], false)
	send(TypeAssessBR, item(hists[1]), item(hists[2]), item(hists[1]))
	// hists[2] rebuilt around a record older than its first, as the store
	// rebuilds a history for an out-of-order report: every bit moves.
	rebuilt := rebuilt(tb, hists[2])
	lost, err := c.server.Encode(TypeAssessBR, 4, AssessBatchResponse{Items: []AssessBatchItem{item(rebuilt)}})
	if err != nil || !lost.Mirror {
		tb.Fatalf("the abandoned frame: mirror=%v, %v", lost.Mirror, err)
	}
	if sent := send(TypeAssessBR, item(rebuilt)); !bytes.Equal(sent.Payload, lost.Payload) {
		tb.Fatalf("the frame after an abandoned one: %x, where the abandoned had %x", sent.Payload, lost.Payload)
	}
	send(TypeAssessR, item(hists[4]))
	for i, env := range frames {
		out := newPayload(want[i])
		if err := c.client.DecodePayload(env, out); err != nil || !reflect.DeepEqual(reflect.ValueOf(out).Elem().Interface(), want[i]) {
			tb.Fatalf("mirror frame %d: %v", i, err)
		}
	}
	// After the first frame: slot 0 holds hists[0]'s bits, slots 4 and up
	// none. frames[1] appends one bit to slot 0.
	bind, _, rest := splitSections(tb, frames[1])
	with := func(sec []byte) Envelope {
		env := frames[1]
		env.Payload, env.plan = slices.Concat(bind, sec, rest), framePlan{}
		return env
	}
	bits := frames[1].Payload[len(bind)+3] // the one bit frames[1] appends
	// Two resets, each of half the bound and one bit more, raw.
	a := binary.AppendUvarint(nil, maxMirrorBits/2<<1)
	over := slices.Concat([]byte{0, 2, 0<<2 | opReset}, a, []byte{4<<2 | opReset}, a, make([]byte, maxMirrorBits/8+1))
	return frames, map[string]Envelope{
		"bits for a slot never bound":            with([]byte{0, 1, 4<<2 | 1, bits}),
		"a slot past the bound":                  with(slices.Concat([]byte{0, 1}, binary.AppendUvarint(nil, maxMirrorSlots<<2|opReset), []byte{0, bits})),
		"a zero-bit append no chain reads":       with([]byte{0, 2, 0<<2 | 1, 1<<2 | 0, bits}),
		"an eviction of a slot holding nothing":  with([]byte{1, 7, 1, 0<<2 | 1, bits}),
		"an eviction of a slot the frame writes": with([]byte{1, 0, 1, 0<<2 | 1, bits}),
		"bits past the section":                  with([]byte{0, 1, 0<<2 | opAppend, 7, bits}),
		"set padding bits":                       with([]byte{0, 1, 0<<2 | 1, bits | 0x80}),
		"slots past the bits bound":              with(over),
		// A reset of one bad record as gaps, two bits for its one; one of
		// 64 good records raw, where its gap takes 8 bits; and as that gap
		// with k = 6, where k = 5 spends as few.
		"a reset as gaps where raw is smaller": with([]byte{0, 1, 0<<2 | opReset, 0<<1 | 1, 0, 0}),
		"a reset raw where gaps are smaller":   with(slices.Concat([]byte{0, 1, 0<<2 | opReset, 63 << 1}, bytes.Repeat([]byte{0xff}, 8))),
		"a reset's gaps of another Rice param": with([]byte{0, 1, 0<<2 | opReset, 63<<1 | 1, 6, 1}),
	}
}

// splitSections splits a committed frame's payload into its name and
// binding sections, its mirror section and the rest.
func splitSections(tb testing.TB, env Envelope) (bind, mir, rest []byte) {
	tb.Helper()
	scratch := newConnState(connLimits)
	r := &breader{buf: env.Payload, dict: getFrameDict(&scratch.in)}
	defer r.release()
	if err := r.sections(&Envelope{Type: env.Type, Names: env.Names, Bindings: env.Bindings}, &scratch.in, new(sections)); err != nil {
		tb.Fatal(err)
	}
	at, end := len(env.Payload)-len(r.buf), env.plan.size
	return env.Payload[:at], env.Payload[at:end], env.Payload[end:]
}

// TestConnectionRefusesHostileMirrors: each hostile mirror section is
// refused — at Commit, or at Decode for a row no chain reads — and breaks
// the connection: the valid frame after it is refused too.
func TestConnectionRefusesHostileMirrors(t *testing.T) {
	frames, hostile := mirrorStream(t)
	for name, env := range hostile {
		conn := CodecFor(VersionV2)
		first := frames[0]
		first.plan = framePlan{}
		if err := conn.Commit(&first); err != nil {
			t.Fatal(err)
		}
		err := conn.Commit(&env)
		if err == nil {
			err = conn.DecodePayload(env, new(AssessResponse))
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		t.Logf("%s: %v", name, err)
		next := frames[1]
		next.plan = framePlan{}
		if cerr := conn.Commit(&next); cerr == nil {
			t.Errorf("%s: refused (%v), then a valid frame committed", name, err)
		}
	}
	// A mirror section on a frame that stands alone, or that its reader
	// did not commit, has no bits to read.
	if err := V2Codec.DecodePayload(frames[0], new(AssessBatchResponse)); err == nil {
		t.Error("V2Codec decoded a mirror section")
	}
	uncommitted := frames[0]
	uncommitted.plan = framePlan{}
	if err := CodecFor(VersionV2).DecodePayload(uncommitted, new(AssessBatchResponse)); err == nil {
		t.Error("a mirror section decoded without its Commit")
	}
}

// judge assesses h, the item carrying the view it judged as repserver's
// assessGroup does, and returns it with what a reader decodes: the same
// item, its Judged nil.
func judge(t testing.TB, tp *core.TwoPhase, h *feedback.History) (sent, read AssessBatchItem) {
	t.Helper()
	snap := h.SnapshotView()
	accept, a, err := tp.Accept(snap, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	read = AssessBatchItem{Server: h.Server(), AssessResponse: AssessResponse{Assessment: a, Accept: accept}}
	sent = read
	sent.Judged = snap
	return sent, read
}

// grow appends one record to h, a second past its newest.
func grow(t testing.TB, h *feedback.History, good bool) {
	t.Helper()
	if err := h.AppendOutcome("c-new", good, h.At(h.Len()-1).Time.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
}

// TestConnectionMirrorBytes pins the assess.batch.resp a node sends the
// paper's loop on long histories, assess_deep's load: 8 servers of 5,000
// records a frame, one new record each between frames — good at the rate
// of the server's history, as the benchmark rates them — 50 frames on one
// connection. Every frame decodes to what was sent; the first carries each
// server's bits whole, as the gaps between its bad records — 471.8 B per
// item, where revision 14's bit a record took 863.5 B — and the 2nd to 50th
// only the records added since, their chains no window counts. A
// never-written encode of each frame, run as the next frames commit,
// changes none of it.
func TestConnectionMirrorBytes(t *testing.T) {
	tp, err := core.DefaultSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	hists := benchHistories(t, 8, 5000)
	rng := stats.NewRNG(54)
	c := newConnection()
	// A handler the deadline abandoned encodes each frame again, never to
	// write it, as later frames commit.
	abandoned := make(chan AssessBatchResponse, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for sent := range abandoned {
			if _, err := c.server.Encode(TypeAssessBR, 999, sent); err != nil {
				t.Error(err)
			}
		}
	}()
	defer func() { close(abandoned); wg.Wait() }()
	total, first := 0, 0
	for f := range 50 {
		var sent, want AssessBatchResponse
		for _, h := range hists {
			if f > 0 {
				grow(t, h, rng.Bernoulli(h.GoodRatio()))
			}
			s, r := judge(t, tp, h)
			sent.Items, want.Items = append(sent.Items, s), append(want.Items, r)
		}
		env := c.send(t, TypeAssessBR, uint64(f+1), sent)
		if !env.Mirror {
			t.Fatalf("frame %d carries no mirror section", f)
		}
		// Alone in its frame a verdict is the same bytes with its judged
		// history as without: nothing to mirror against.
		alone, err := V2Codec.Encode(TypeAssessBR, 1, sent)
		if bare, _ := V2Codec.Encode(TypeAssessBR, 1, want); err != nil || alone.Mirror || !bytes.Equal(alone.Payload, bare.Payload) {
			t.Fatalf("frame %d alone: mirror=%v, %v", f, alone.Mirror, err)
		}
		abandoned <- sent
		var back AssessBatchResponse
		if err := c.client.DecodePayload(c.receive(t), &back); err != nil || !reflect.DeepEqual(back, want) {
			t.Fatalf("frame %d: %v", f, err)
		}
		if f == 0 {
			first = len(env.Payload)
			if most := 520 * len(hists); first > most {
				t.Errorf("the first frame: %.1f B per item, want <= %d", float64(first)/8, most/8)
			}
		} else {
			total += len(env.Payload)
		}
	}
	per := float64(total) / 49 / 8
	t.Logf("assess.batch.resp of 8 × 5000 records: first frame %.1f B per item, 2..50 %.1f B per item", float64(first)/8, per)
	if most := 30.0; per > most {
		t.Errorf("%.1f B per item, want <= %.0f", per, most)
	}
}

// TestBindingRowsOnFirstTouch: a connection's bindings hold a row of grid
// slots only for the window buckets its verdicts reach — a connection
// carrying only 200-record verdicts, whose rows span 20 windows down to 4,
// the 8 of 35 that hold those counts.
func TestBindingRowsOnFirstTouch(t *testing.T) {
	tp, err := core.DefaultSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	items := benchMix(t, tp, 16, 200)
	reached := map[uint32]bool{}
	for _, item := range items {
		for i := range item.Assessment.Verdict.Suffixes {
			reached[rowSlot(&item.Assessment.Verdict.Suffixes[i])/uint32(gridP)] = true
		}
	}
	c := newConnection()
	c.send(t, TypeAssessBR, 1, AssessBatchResponse{Items: items})
	c.receive(t)
	for end, b := range map[string]*bindings{"server": &c.server.st.out.grid, "client": &c.client.st.in.grid} {
		held := 0
		for i := range b.rows {
			if b.rows[i].Load() != nil {
				held++
				if !reached[uint32(i)] {
					t.Errorf("the %s's bindings hold window bucket %d, which no row reaches", end, i)
				}
			}
		}
		if held != 8 || len(reached) != 8 || len(b.rows) != 35 {
			t.Errorf("the %s's bindings hold %d of %d window buckets; the rows reach %d, want 8 of 35", end, held, len(b.rows), len(reached))
		}
	}
}

// TestConnectionMirrorEvicts: a connection whose verdicts span more bits
// or more servers than it mirrors evicts the slots written least recently —
// with an eviction for bits, by resetting a slot for another server when
// every slot is taken — and every frame still decodes to what was sent,
// also a verdict on a server whose slot was evicted, which sends its bits
// again.
func TestConnectionMirrorEvicts(t *testing.T) {
	if testing.Short() {
		t.Skip("thousands of histories")
	}
	tp, err := core.DefaultSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                    string
		servers, records, batch int
	}{
		{"bits", maxMirrorBits/20000 + 8, 20000, 32},
		{"slots", maxMirrorSlots + 40, 60, MaxAssessBatch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hists := make([]*feedback.History, tc.servers)
			for i := range hists {
				hists[i] = honestHistory(t, feedback.EntityID(fmt.Sprint("s", i)), tc.records, 0.95, int64(i))
			}
			c := newConnection()
			evicted, reused := 0, 0
			send := func(hs []*feedback.History) {
				var sent, want AssessBatchResponse
				for _, h := range hs {
					s, r := judge(t, tp, h)
					sent.Items, want.Items = append(sent.Items, s), append(want.Items, r)
				}
				m := &c.server.st.out.mirror
				env, err := c.server.Encode(TypeAssessBR, 1, sent)
				if err != nil || !env.Mirror || len(env.plan.rows) != len(hs) {
					t.Fatalf("a frame of %d verdicts mirrors %d: %v", len(hs), len(env.plan.rows), err)
				}
				for _, r := range env.plan.rows {
					if r.reset && int(r.slot) < len(m.sent) && m.sent[r.slot].n > 0 && m.sent[r.slot].server != r.server {
						reused++
					}
				}
				evicted += len(env.plan.evict)
				if err := WriteV2(&c.wire, env); err != nil {
					t.Fatal(err)
				}
				if err := c.server.Commit(&env); err != nil {
					t.Fatal(err)
				}
				var back AssessBatchResponse
				if err := c.client.DecodePayload(c.receive(t), &back); err != nil || !reflect.DeepEqual(back, want) {
					t.Fatalf("%v", err)
				}
			}
			for lo := 0; lo < len(hists); lo += tc.batch {
				send(hists[lo:min(lo+tc.batch, len(hists))])
			}
			send(hists[:3]) // evicted first, so their bits ride again
			if evicted+reused == 0 {
				t.Fatalf("%d servers of %d records: nothing evicted", tc.servers, tc.records)
			}
			m := &c.server.st.out.mirror
			if m.total > maxMirrorBits || c.client.st.in.mirror.total != m.total || len(m.sent) > maxMirrorSlots {
				t.Fatalf("the server mirrors %d bits in %d slots, the client %d bits", m.total, len(m.sent), c.client.st.in.mirror.total)
			}
			t.Logf("%d evictions, %d slots reset for another server; %d bits mirrored", evicted, reused, m.total)
		})
	}
}
