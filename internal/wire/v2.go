// Protocol v2: length-prefixed binary framing, negotiated per connection
// alongside the JSON protocol.
//
// A v2 connection opens with a 5-byte client hello whose first byte (0xB2)
// can never begin a JSON frame ('{'), so the server distinguishes the two
// protocols by peeking one byte. A pre-v2 server treats the hello as a
// malformed JSON line and answers with its usual id-0 error frame — which
// starts with '{' — so a negotiating client detects the fallback from the
// first response byte and redials speaking JSON. Old clients never send the
// magic and land on the JSON path untouched.
//
//	client hello:  0xB2 'W' '2' <maxver> '\n'     (newline keeps a pre-v2
//	                                               server's line reader from
//	                                               blocking on the hello)
//	server ack:    0xB2 'W' '2' <ver>
//
// The '2' names the framing; <maxver>/<ver> is VersionV2, the revision of the
// payload codecs spoken on it.
//
// After the ack both directions speak length-prefixed frames:
//
//	uint32  big-endian length of the body (type + flags + id + payload)
//	uint8   type code (see typeCode)
//	uint8   flags (bit 0: payload is JSON bytes, not the binary codec)
//	uint64  big-endian request id
//	bytes   payload
//
// Frames carry no per-frame version — the version is fixed at negotiation.
// The body length is bounded by MaxFrame, the same limit as the JSON
// protocol. Ids keep their v1 semantics (responses echo them, id 0 is
// unattributable and connection-fatal), but v2 drops the one-in-flight
// restriction: many requests may be outstanding per connection and a
// response is matched to its request by id, not by order.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
)

// VersionV2 is the version of the binary protocol that the hello/ack
// handshake negotiates; it counts revisions of the payload codecs. 2 wrote a
// verdict as rows and 3 the column table of verdict.go (ADR 0006); 3 wrote a
// frame's records as rows and 4 writes them as one record batch (ADR 0008).
// No revision reads the one before, so neighbours refuse each other at the
// handshake: a hello offering 3 fails ReadHello like any too-old version, and
// an ack of 3 fails ReadHelloAck with ErrBadVersion before a frame is decoded.
const VersionV2 = 4

// HelloMagic is the first byte of a v2 client hello. It is deliberately not
// a printable character and in particular not '{', so the first byte of a
// connection unambiguously selects the framing.
const HelloMagic byte = 0xB2

// helloPrefix is the shared prefix of the client hello and the server ack.
var helloPrefix = [3]byte{HelloMagic, 'W', '2'}

// ErrNotV2 reports that the peer did not speak the v2 handshake (the
// connection may still be usable as JSON after a redial).
var ErrNotV2 = errors.New("wire: peer does not speak protocol v2")

// v2 frame geometry.
const (
	v2HeaderLen = 4 + 1 + 1 + 8 // length + type code + flags + id
	v2BodyMin   = v2HeaderLen - 4
)

// flagJSONPayload marks a v2 frame whose payload is JSON bytes rather than
// the per-type binary codec — the escape hatch for message types without a
// binary codec (the gossip exchange above all).
const flagJSONPayload byte = 1 << 0

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
	TypeDigest:   13,
	TypeDelta:    14,
	TypeSummary:  15,
	TypeSummaryR: 16,
	TypeError:    17,
	// Cluster forwarding. The fwd.* payloads have binary codecs (their
	// responses carry full verdict tables, far too hot for JSON); the
	// cluster.info pair is cold and rides as JSON via flagJSONPayload.
	// Codes 20 and 21 belonged to the retired single-record fwd.submit pair
	// and stay reserved.
	TypeFwdAssess:    18,
	TypeFwdAssessR:   19,
	TypeFwdBatch:     22,
	TypeFwdBatchR:    23,
	TypeFwdAssessB:   24,
	TypeFwdAssessBR:  25,
	TypeClusterInfo:  26,
	TypeClusterInfoR: 27,
}

var v2Types = func() map[byte]MsgType {
	m := make(map[byte]MsgType, len(v2Codes))
	for t, c := range v2Codes {
		m[c] = t
	}
	return m
}()

// WriteHello writes the 5-byte client hello offering VersionV2.
func WriteHello(w io.Writer) error {
	hello := [5]byte{helloPrefix[0], helloPrefix[1], helloPrefix[2], VersionV2, '\n'}
	if _, err := w.Write(hello[:]); err != nil {
		return fmt.Errorf("wire: write hello: %w", err)
	}
	return nil
}

// ReadHello consumes a client hello and returns the offered version. The
// caller has already peeked HelloMagic; anything else malformed fails with
// ErrBadMessage, an offered version below VersionV2 with ErrBadVersion.
func ReadHello(r io.Reader) (byte, error) {
	var hello [5]byte
	if _, err := io.ReadFull(r, hello[:]); err != nil {
		return 0, fmt.Errorf("%w: short hello: %v", ErrBadMessage, err)
	}
	if [3]byte(hello[:3]) != helloPrefix || hello[4] != '\n' {
		return 0, fmt.Errorf("%w: malformed v2 hello", ErrBadMessage)
	}
	// Future clients may offer a higher version; the server acks the highest
	// it speaks. Anything below VersionV2 cannot be served on this framing.
	if hello[3] < VersionV2 {
		return 0, fmt.Errorf("%w: hello offers %d", ErrBadVersion, hello[3])
	}
	return hello[3], nil
}

// WriteHelloAck writes the 4-byte server ack confirming VersionV2.
func WriteHelloAck(w io.Writer) error {
	ack := [4]byte{helloPrefix[0], helloPrefix[1], helloPrefix[2], VersionV2}
	if _, err := w.Write(ack[:]); err != nil {
		return fmt.Errorf("wire: write hello ack: %w", err)
	}
	return nil
}

// ReadHelloAck consumes and validates a server ack. A first byte of '{'
// means the peer answered with a JSON frame — a pre-v2 server rejecting the
// hello — and is reported as ErrNotV2 so the client can fall back.
func ReadHelloAck(r io.Reader) error {
	var ack [4]byte
	if _, err := io.ReadFull(r, ack[:1]); err != nil {
		return fmt.Errorf("wire: read hello ack: %w", err)
	}
	if ack[0] == '{' {
		return ErrNotV2
	}
	if _, err := io.ReadFull(r, ack[1:]); err != nil {
		return fmt.Errorf("wire: read hello ack: %w", err)
	}
	if [3]byte(ack[:3]) != helloPrefix {
		return fmt.Errorf("%w: malformed ack", ErrNotV2)
	}
	if ack[3] != VersionV2 {
		return fmt.Errorf("%w: ack version %d", ErrBadVersion, ack[3])
	}
	return nil
}

// maxPooledFrame bounds the frame buffers kept in the pool: occasional huge
// frames (chunked histories) should not pin megabytes per idle connection.
const maxPooledFrame = 1 << 20

var frameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// WriteV2 frames and writes one envelope in v2 framing with a single Write
// call, assembling the frame in a pooled buffer. env.Binary selects the
// payload-encoding flag; the writer does not re-encode the payload.
func WriteV2(w io.Writer, env Envelope) error {
	code, ok := v2Codes[env.Type]
	if !ok {
		return fmt.Errorf("%w: type %q has no v2 code", ErrBadMessage, env.Type)
	}
	body := v2BodyMin + len(env.Payload)
	if body > MaxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, body)
	}
	var flags byte
	if !env.Binary && len(env.Payload) > 0 {
		flags |= flagJSONPayload
	}
	bp := frameBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = binary.BigEndian.AppendUint32(buf, uint32(body))
	buf = append(buf, code, flags)
	buf = binary.BigEndian.AppendUint64(buf, env.ID)
	buf = append(buf, env.Payload...)
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledFrame {
		*bp = buf
		frameBufPool.Put(bp)
	}
	if err != nil {
		return fmt.Errorf("write frame: %w", err)
	}
	return nil
}

// ReadV2 reads one v2 frame into a freshly allocated envelope. The payload
// is owned by the caller; use ReadV2Into on hot loops that can recycle the
// buffer.
func ReadV2(r io.Reader) (Envelope, error) {
	env, _, err := ReadV2Into(r, nil)
	return env, err
}

// ReadV2Into reads one v2 frame, decoding its payload into buf (grown as
// needed) and returns the envelope together with the buffer for reuse.
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
	body := int(binary.BigEndian.Uint32(hdr[:4]))
	if body > MaxFrame {
		return Envelope{}, buf, ErrFrameTooLarge
	}
	if body < v2BodyMin {
		return Envelope{}, buf, fmt.Errorf("%w: body %d below header", ErrBadMessage, body)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return Envelope{}, buf, fmt.Errorf("read frame: %w", err)
	}
	typ, ok := v2Types[hdr[4]]
	if !ok {
		return Envelope{}, buf, fmt.Errorf("%w: unknown type code %d", ErrBadMessage, hdr[4])
	}
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
	env := Envelope{V: VersionV2, Type: typ, ID: id}
	if n > 0 {
		env.Payload = buf
		env.Binary = flags&flagJSONPayload == 0
	}
	return env, buf, nil
}
