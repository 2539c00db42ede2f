// The frame: length-prefixed and binary, the one way onto a node (ADR 0009).
//
// A connection opens with a 5-byte client hello and a 4-byte server ack:
//
//	client hello:  0xB2 'W' '2' <rev> '\n'
//	server ack:    0xB2 'W' '2' <rev>
//
// <rev> is the sender's VersionV2, the revision of the payload codecs it
// speaks. The server acks its own revision to any well-formed hello. An end
// whose peer named another revision speaks BridgeCodec — every payload JSON —
// and refuses a binary payload with ErrBadVersion, so neighbours a codec
// revision apart meet on JSON inside the frame, and a peer without the bridge
// can never hand this end binary bytes in a layout it has no reader for.
// (The hello's first byte is not '{' and its trailing '\n' kept a JSON line
// reader from blocking on it; both date from the JSON line framing this frame
// replaced and stay so that builds of one revision speak binary to each
// other.)
//
// After the ack both directions speak frames:
//
//	uint32  big-endian length of the body (type + flags + id + payload)
//	uint8   type code (see v2Codes)
//	uint8   flags (bit 0: payload is JSON bytes, not the binary codec;
//	        bits 3, 1 and 2: a name, a binding and a mirror section head
//	        the binary payload, in that order — conn.go)
//	uint64  big-endian request id
//	bytes   payload
//
// Frames carry no version — the codec is fixed at the handshake. The body
// length is bounded by MaxFrame. Responses echo the request id, and id 0 is
// unattributable and connection-fatal. Many requests may be outstanding per
// connection: a response is matched to its request by id, not by order. A
// binary connection keeps one state at each end, which the frames' sections
// change in the order the frames cross (conn.go, Codec.Commit).
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
)

// VersionV2 is the revision of the payload codecs this build speaks, named in
// the hello and the ack. Each revision changed the bytes of some binary
// payload; ADR 0006 has a row for each from 7 on (15 to 16: the gossip
// exchange is one round trip of two binary payloads, ADR 0022). No revision
// reads another's binary payloads: ends of different revisions speak
// BridgeCodec (ADR 0009).
const VersionV2 = 16

// HelloMagic is the first byte of a client hello. A connection that opens
// with any other byte is closed.
const HelloMagic byte = 0xB2

// helloPrefix is the shared prefix of the client hello and the server ack.
var helloPrefix = [3]byte{HelloMagic, 'W', '2'}

// ErrNotV2 reports a peer that answered the hello with something other than
// an ack — a JSON-only server built before the frame became the only way in.
var ErrNotV2 = errors.New("wire: peer does not speak protocol v2")

// v2 frame geometry.
const (
	v2HeaderLen = 4 + 1 + 1 + 8 // length + type code + flags + id
	v2BodyMin   = v2HeaderLen - 4
)

// flagJSONPayload marks a frame whose payload is JSON bytes rather than the
// per-type binary codec: every payload on a bridged connection, and on a
// binary one only a payload the binary form refuses — an invalid record, or
// a BatchResponse whose totals are not its items'. Every type but ping and
// pong has a binary codec.
const flagJSONPayload byte = 1 << 0

// The section flags: a binary payload is headed by a name section, a
// binding section and a mirror section, in that order, each present when
// its flag is set (conn.go).
const (
	flagBindings byte = 1 << 1
	flagMirror   byte = 1 << 2
	flagNames    byte = 1 << 3
)

// Type codes for the v2 frame header. Codes are part of the wire contract:
// never renumber, only append.
var v2Codes = map[MsgType]byte{
	TypePing:     1,
	TypePong:     2,
	TypeSubmit:   3,
	TypeSubmitR:  4,
	TypeSubmitB:  5,
	TypeSubmitBR: 6,
	TypeHistory:  7,
	TypeHistoryR: 8,
	TypeAssess:   9,
	TypeAssessR:  10,
	TypeAssessB:  11,
	TypeAssessBR: 12,
	// Codes 13 and 14 belonged to the retired gossip.digest/gossip.delta
	// pair (ADR 0022) and stay reserved.
	TypeSummary:  15,
	TypeSummaryR: 16,
	TypeError:    17,
	// Cluster forwarding. Codes 18 and 19 belonged to the retired
	// single-server fwd.assess pair (ADR 0010), 20 and 21 to the retired
	// single-record fwd.submit pair (ADR 0001), 26 and 27 to the retired
	// cluster.info pair, whose answer is the node's /metricz cluster block
	// now (ADR 0022); all six stay reserved.
	TypeFwdBatch:    22,
	TypeFwdBatchR:   23,
	TypeFwdAssessB:  24,
	TypeFwdAssessBR: 25,
}

var v2Types = func() map[byte]MsgType {
	m := make(map[byte]MsgType, len(v2Codes))
	for t, c := range v2Codes {
		m[c] = t
	}
	return m
}()

// Codec is the payload encoding of one connection, fixed at the handshake
// (CodecFor). Both codecs write the same frame; the negotiated one rides the
// request context so handlers answer in it (service.WithCodec /
// service.CodecFrom). A binary connection's codec holds its end's state
// (conn.go): an end encodes against the direction it writes, and decodes
// against the one it reads, the frames of each crossing at its one ordered
// point (Commit). A codec without a state — V2Codec, BridgeCodec — gives
// each frame a state of zero bounds, so its frame is a connection of one
// frame.
type Codec struct {
	bridge bool
	st     *connState // nil: a state of zero bounds for each frame
}

var (
	// V2Codec encodes payloads with the per-type binary codecs, falling back
	// to JSON payload bytes for a payload the binary form refuses. Each of
	// its frames is a connection of its own whose tables hold nothing: it
	// binds every grid point its verdicts key on, spells every name literal
	// and mirrors nothing.
	V2Codec = Codec{}
	// BridgeCodec encodes every payload as JSON: the codec of a connection
	// whose two ends run different codec revisions.
	BridgeCodec = Codec{bridge: true}
)

// CodecFor returns the codec to speak to a peer of codec revision peer:
// binary, with a connection state of its own, when it is this build's, the
// JSON bridge otherwise. Each connection takes its own: a redial starts
// fresh tables at both ends.
func CodecFor(peer byte) Codec {
	if peer != VersionV2 {
		return BridgeCodec
	}
	return Codec{st: newConnState(connLimits)}
}

// alone is the state every frame alone is encoded against: nothing is
// written to a writer's side of zero bounds — its names ride literal, its
// frames bind their own grid points and mirror nothing — so the frames
// share it as if each had its own.
var alone = newConnState(limits{})

// aloneStates recycles the states frames alone are read into.
var aloneStates = sync.Pool{New: func() any { return newConnState(limits{}) }}

// state returns the connection state c's frames are encoded against: its
// connection's, or alone.
func (c Codec) state() *connState {
	if c.st == nil {
		return alone
	}
	return c.st
}

// readAlone commits env, a frame alone, into a state of zero bounds, and
// decodes it there into out unless out is nil. The state goes back to
// aloneStates with the grid points the frame's binding section bound — all
// that a reader's side of zero bounds takes — unbound, unless the frame
// broke it.
func readAlone(env *Envelope, out any) error {
	st := aloneStates.Get().(*connState)
	err := st.commit(env)
	if err == nil && out != nil {
		err = decodeBinary(*env, out, st)
	}
	if !st.broken.Load() {
		if p := env.plan; p.sections != nil {
			for _, slot := range p.grid {
				st.in.grid.unbind(slot)
			}
		}
		st.in.seq = 0
		aloneStates.Put(st)
	}
	return err
}

// Encode marshals a payload into an envelope in the codec's encoding.
func (c Codec) Encode(t MsgType, id uint64, payload any) (Envelope, error) {
	env := Envelope{Type: t, ID: id}
	if payload == nil {
		return env, nil
	}
	// A binary-encode failure is not fatal: the binary form refuses values
	// the protocol must still carry (e.g. invalid feedback, which the server
	// — not the client codec — rejects with a typed error). Such payloads
	// ride as JSON. A payload with more verdict rows than a binary frame
	// decodes is refused as response_too_large instead, as a server
	// refuses a frame above MaxFrame.
	if !c.bridge {
		if rows := verdictRows(payload); rows > maxFrameRows {
			return env, &ErrorResponse{Code: CodeResponseTooLarge, Message: fmt.Sprintf("%s: %d verdict rows, above a frame's %d", t, rows, maxFrameRows)}
		}
		bin := env
		if ok, err := encodeBinary(&bin, payload, &c.state().out); ok && err == nil {
			bin.Binary = true
			return bin, nil
		}
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return env, fmt.Errorf("encode %s: %w", t, err)
	}
	env.Payload = raw
	return env, nil
}

// DecodePayload unmarshals an envelope's payload into out, dispatching on the
// payload encoding: the per-type binary codec for a binary payload, JSON for
// a JSON-flagged one. A binary frame decodes after its Commit — on any
// goroutine, at any time — against the tables as the frames up to its own
// left them; a payload that does not decode breaks the connection, as a
// refused Commit does. A codec without a state commits the frame into a
// state of its own first.
func (c Codec) DecodePayload(env Envelope, out any) error {
	if env.Binary {
		if c.st == nil {
			return readAlone(&env, out)
		}
		return decodeBinary(env, out, c.st)
	}
	if env.Bindings || env.Mirror || env.Names {
		return fmt.Errorf("%w: %s: a section on a JSON payload", ErrBadMessage, env.Type)
	}
	if err := json.Unmarshal(env.Payload, out); err != nil {
		return fmt.Errorf("%w: %s payload: %v", ErrBadMessage, env.Type, err)
	}
	return nil
}

// Commit adds env's frame to the connection's state. The writer commits a
// frame once its burst has taken it (Burst.Append, WriteV2), applying the
// plan Encode made — a burst leaves whole and in order or the connection
// ends, so that append is the write — and never a frame it did not write;
// the reader commits it before it hands the frame on to be decoded,
// reading its sections into the tables and into the plan the frame decodes
// with. A section no encoder writes is refused, and then every later Commit
// and DecodePayload on the connection fails. A codec without a state
// commits into a state of its own, whose zero bounds refuse a name or a
// mirror section.
func (c Codec) Commit(env *Envelope) error {
	if c.st == nil {
		return readAlone(env, nil)
	}
	return c.st.commit(env)
}

// ReadFrame reads one frame, as ReadV2Into does. On a bridged connection a
// binary payload fails with ErrBadVersion: the peer wrote it in its own codec
// revision, which this end may have no reader for, so it is never decoded.
func (c Codec) ReadFrame(r io.Reader, buf []byte) (Envelope, []byte, error) {
	env, buf, err := ReadV2Into(r, buf)
	if err == nil && c.bridge && env.Binary {
		err = fmt.Errorf("%w: binary %s payload on a bridged connection", ErrBadVersion, env.Type)
	}
	return env, buf, err
}

// WriteHello writes the 5-byte client hello offering VersionV2.
func WriteHello(w io.Writer) error {
	hello := [5]byte{helloPrefix[0], helloPrefix[1], helloPrefix[2], VersionV2, '\n'}
	if _, err := w.Write(hello[:]); err != nil {
		return fmt.Errorf("wire: write hello: %w", err)
	}
	return nil
}

// ReadHello consumes a client hello and returns the codec revision it
// offers, whichever that is. A connection closed before its first byte
// returns that read's error as it is (io.EOF, typically); any opening that is
// not a hello — a first byte other than HelloMagic, a short or garbled
// hello — fails with ErrBadMessage.
func ReadHello(r io.Reader) (byte, error) {
	var hello [5]byte
	if _, err := io.ReadFull(r, hello[:1]); err != nil {
		return 0, err
	}
	if hello[0] != HelloMagic {
		return 0, fmt.Errorf("%w: opening byte %#x is not a hello", ErrBadMessage, hello[0])
	}
	if _, err := io.ReadFull(r, hello[1:]); err != nil {
		return 0, fmt.Errorf("%w: short hello: %v", ErrBadMessage, err)
	}
	if [3]byte(hello[:3]) != helloPrefix || hello[4] != '\n' {
		return 0, fmt.Errorf("%w: malformed hello", ErrBadMessage)
	}
	return hello[3], nil
}

// WriteHelloAck writes the 4-byte server ack naming VersionV2.
func WriteHelloAck(w io.Writer) error {
	ack := [4]byte{helloPrefix[0], helloPrefix[1], helloPrefix[2], VersionV2}
	if _, err := w.Write(ack[:]); err != nil {
		return fmt.Errorf("wire: write hello ack: %w", err)
	}
	return nil
}

// ReadAck consumes a server ack and returns the codec revision it names. A
// reply that is not an ack fails with ErrNotV2.
func ReadAck(r io.Reader) (byte, error) {
	var ack [4]byte
	if _, err := io.ReadFull(r, ack[:]); err != nil {
		return 0, fmt.Errorf("wire: read hello ack: %w", err)
	}
	if [3]byte(ack[:3]) != helloPrefix {
		return 0, fmt.Errorf("%w: malformed ack", ErrNotV2)
	}
	return ack[3], nil
}

// MaxBurst bounds what a connection holds unsent — a writer writes its burst
// once it passes MaxBurst — and the buffers the frame pool keeps: one grown
// past it by a huge frame (a chunked history) is dropped, not pinned.
const MaxBurst = 1 << 20

var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// FrameBuf takes an empty buffer from the frame pool.
func FrameBuf() *[]byte { return frameBufPool.Get().(*[]byte) }

// PutFrameBuf hands bp back to the frame pool, unless it outgrew MaxBurst.
func PutFrameBuf(bp *[]byte) {
	if cap(*bp) <= MaxBurst {
		*bp = (*bp)[:0]
		frameBufPool.Put(bp)
	}
}

// AppendV2 appends env's frame to buf. env.Binary selects the
// payload-encoding flag; the payload is not re-encoded. A frame it refuses
// leaves buf as it was.
func AppendV2(buf []byte, env Envelope) ([]byte, error) {
	code, ok := v2Codes[env.Type]
	if !ok {
		return buf, fmt.Errorf("%w: type %q has no v2 code", ErrBadMessage, env.Type)
	}
	body := v2BodyMin + len(env.Payload)
	if body > MaxFrame {
		return buf, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body)
	}
	var flags byte
	if !env.Binary && len(env.Payload) > 0 {
		flags |= flagJSONPayload
	}
	if env.Bindings {
		flags |= flagBindings
	}
	if env.Mirror {
		flags |= flagMirror
	}
	if env.Names {
		flags |= flagNames
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(body))
	buf = append(buf, code, flags)
	buf = binary.BigEndian.AppendUint64(buf, env.ID)
	return append(buf, env.Payload...), nil
}

// Burst gathers frames to leave a connection in one Write. The zero Burst
// holds no buffer: the first Append takes one from the frame pool and Flush
// hands it back, so an idle connection holds none.
type Burst struct{ bp *[]byte }

// Append appends env's frame to the burst, as AppendV2 does.
func (b *Burst) Append(env Envelope) (err error) {
	if b.bp == nil {
		b.bp = FrameBuf()
	}
	*b.bp, err = AppendV2(*b.bp, env)
	return err
}

// Len returns the bytes the burst holds.
func (b *Burst) Len() int {
	if b.bp == nil {
		return 0
	}
	return len(*b.bp)
}

// Flush writes the burst's frames in one Write and hands its buffer back to
// the pool, leaving the zero Burst. An empty burst writes nothing.
func (b *Burst) Flush(w io.Writer) error {
	if b.Len() == 0 {
		return nil
	}
	_, err := w.Write(*b.bp)
	PutFrameBuf(b.bp)
	b.bp = nil
	if err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// WriteV2 frames and writes one envelope with a single Write call: a burst
// of one frame.
func WriteV2(w io.Writer, env Envelope) error {
	var b Burst
	if err := b.Append(env); err != nil {
		return err
	}
	return b.Flush(w)
}

// ReadV2 reads one frame into a freshly allocated envelope. The payload is
// owned by the caller; use ReadV2Into on hot loops that can recycle the
// buffer.
func ReadV2(r io.Reader) (Envelope, error) {
	env, _, err := ReadV2Into(r, nil)
	return env, err
}

// ReadV2Into reads one frame, decoding its payload into buf (grown as needed)
// and returns the envelope together with the buffer for reuse. A frame of an
// unknown type code is read whole and fails with ErrUnknownType, the envelope
// carrying its id.
//
// ALIASING: env.Payload aliases the returned buffer. The envelope is only
// valid until the buffer's next use — callers must fully decode (or copy)
// the payload before reading the next frame, and must not hand the envelope
// to anything that outlives the iteration (see the repserver conn loop for
// the abandoned-handler case).
func ReadV2Into(r io.Reader, buf []byte) (Envelope, []byte, error) {
	var hdr [v2HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		if errors.Is(err, io.EOF) {
			return Envelope{}, buf, io.EOF
		}
		return Envelope{}, buf, fmt.Errorf("read frame: %w", err)
	}
	// Compared unsigned: on a 32-bit int a prefix of 0xffffffff converts to −1.
	length := binary.BigEndian.Uint32(hdr[:4])
	if length > MaxFrame {
		return Envelope{}, buf, ErrFrameTooLarge
	}
	body := int(length)
	if body < v2BodyMin {
		return Envelope{}, buf, fmt.Errorf("%w: body %d below header", ErrBadMessage, body)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return Envelope{}, buf, fmt.Errorf("read frame: %w", err)
	}
	typ, known := v2Types[hdr[4]]
	flags := hdr[5]
	id := binary.BigEndian.Uint64(hdr[6:])
	n := body - v2BodyMin
	if cap(buf) < n {
		buf = make([]byte, n)
	} else {
		buf = buf[:n]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return Envelope{}, buf, fmt.Errorf("read frame payload: %w", err)
	}
	env := Envelope{Type: typ, ID: id}
	if !known {
		return env, buf, fmt.Errorf("%w code %d", ErrUnknownType, hdr[4])
	}
	if n > 0 {
		env.Payload = buf
		env.Binary = flags&flagJSONPayload == 0
		env.Bindings = flags&flagBindings != 0
		env.Mirror = flags&flagMirror != 0
		env.Names = flags&flagNames != 0
	}
	return env, buf, nil
}
