package repclient

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"honestplayer/internal/wire"
)

// DefaultWindow bounds how many requests a connection keeps in flight.
// The window caps client-side memory (one pending slot per request) and
// stops a single caller burst from queueing unbounded work on the server.
const DefaultWindow = 64

// muxTimers pools the per-request timeout timers (see muxRoundTrip). Timers
// are always returned stopped and drained (Go 1.22 timer-channel semantics).
var muxTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}}

// muxResult carries one demultiplexed response — or the connection's fatal
// error — to the caller waiting on its id.
type muxResult struct {
	env wire.Envelope
	err error
}

// mux is one pipelined connection. Many goroutines send
// concurrently; a single demux goroutine reads responses and completes
// callers by envelope id, so responses may resolve in any order relative to
// the callers' sends. A transport failure — read error, write error, or an
// unattributable (id 0) server error frame — fails every pending call and
// permanently poisons the mux; the owning Client redials on the next call.
type mux struct {
	nc    net.Conn
	codec wire.Codec // fixed at the handshake

	// Senders append to burst under wmu and kick the flusher goroutine,
	// which takes the burst under wmu and writes it outside: frames appended
	// while a write is in progress, or while the flusher waits for CPU,
	// leave in the next write as one burst, and no sender waits on a write.
	// fmu orders the writes — the flusher's, and a sender's whose frame took
	// the burst past wire.MaxBurst — as the bursts were taken.
	wmu, fmu  sync.Mutex
	burst     wire.Burst
	flushKick chan struct{} // cap 1: a pending kick covers any number of frames

	// slots is the in-flight window: a sender acquires a slot before
	// registering and releases it when its call completes.
	slots chan struct{}

	mu      sync.Mutex
	pending map[uint64]chan muxResult // nil after fail: registration refused
	err     error                     // first fatal error; non-nil ⇒ poisoned
	done    chan struct{}             // closed by fail: stops the flusher
}

// newMux wraps a connection that has completed the handshake and starts its
// demux goroutine. reader must be the same reader the handshake used (it may
// have buffered the first response bytes already).
func newMux(nc net.Conn, reader *bufio.Reader, window int, codec wire.Codec) *mux {
	if window <= 0 {
		window = DefaultWindow
	}
	m := &mux{
		nc:        nc,
		codec:     codec,
		flushKick: make(chan struct{}, 1),
		done:      make(chan struct{}),
		slots:     make(chan struct{}, window),
		pending:   make(map[uint64]chan muxResult),
	}
	go m.demux(reader)
	go m.flusher()
	return m
}

// dead reports whether the mux has been poisoned by a transport failure.
func (m *mux) dead() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err != nil
}

// fail poisons the mux: records the first fatal error, completes every
// pending call with it, refuses future registrations, and closes the
// connection (which also stops the demux goroutine). Idempotent.
func (m *mux) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
		close(m.done)
	} else {
		err = m.err
	}
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	for _, ch := range pending {
		ch <- muxResult{err: err} // buffered; never blocks
	}
	_ = m.nc.Close()
}

// acquire takes an in-flight slot, giving up when the context — or the
// caller's bare timeout timer — expires first.
func (m *mux) acquire(ctx context.Context, timeoutC <-chan time.Time) error {
	select {
	case m.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-timeoutC:
		return context.DeadlineExceeded
	}
}

func (m *mux) release() { <-m.slots }

// register reserves a completion channel for a request id. It fails with
// the poisoning error once the mux is dead.
func (m *mux) register(id uint64) (chan muxResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return nil, m.err
	}
	ch := make(chan muxResult, 1)
	m.pending[id] = ch
	return ch, nil
}

// unregister abandons a pending request (cancelled caller). A response that
// arrives later finds no channel and is dropped by the demux loop: ids, not
// stream order, pair responses with requests, so a late reply cannot poison
// the connection.
func (m *mux) unregister(id uint64) {
	m.mu.Lock()
	delete(m.pending, id)
	m.mu.Unlock()
}

// send appends one frame to the burst and kicks the flusher; a frame that
// takes the burst past wire.MaxBurst writes it at once. A write failure
// poisons the mux (the stream may hold a half-written frame). An appended
// frame's plan is the connection's from then on: frames encoded after the
// commit plan against it, and are written after this one.
func (m *mux) send(env wire.Envelope) error {
	m.wmu.Lock()
	err := m.burst.Append(env)
	full := m.burst.Len() > wire.MaxBurst
	m.wmu.Unlock()
	if err == nil {
		err = m.codec.Commit(&env)
	}
	if err == nil && full {
		err = m.flush()
	}
	if err != nil {
		m.fail(fmt.Errorf("%w: write request: %v", ErrConnBroken, err))
		return err
	}
	select {
	case m.flushKick <- struct{}{}:
	default: // a kick is already pending; it will cover this frame too
	}
	return nil
}

// flush takes the burst and writes it in one syscall.
func (m *mux) flush() error {
	m.fmu.Lock()
	defer m.fmu.Unlock()
	m.wmu.Lock()
	b := m.burst
	m.burst = wire.Burst{}
	m.wmu.Unlock()
	return b.Flush(m.nc)
}

// flusher drains flush kicks, pushing appended frames to the socket, so
// every frame appended between two of its wake-ups — by any number of
// senders — leaves in one syscall. It exits when a write fails or when the
// mux is poisoned by anyone else.
func (m *mux) flusher() {
	for {
		select {
		case <-m.flushKick:
		case <-m.done:
			return
		}
		// Step aside once before flushing: senders already runnable get to
		// append their frames first, so one syscall carries the whole burst
		// (a scheduler pass costs far less than the write it saves).
		runtime.Gosched()
		if err := m.flush(); err != nil {
			m.fail(fmt.Errorf("%w: flush request: %v", ErrConnBroken, err))
			return
		}
	}
}

// demux is the connection's read loop: it reads response frames and routes
// each to the caller registered under its id. It exits — poisoning the mux —
// on any read error or on an unattributable (id 0) error frame, which the
// protocol defines as connection-fatal. A frame of an unknown type was read
// whole and fails only its own caller.
func (m *mux) demux(reader *bufio.Reader) {
	for {
		env, _, err := m.codec.ReadFrame(reader, nil)
		if err != nil && !errors.Is(err, wire.ErrUnknownType) {
			m.fail(fmt.Errorf("%w: read response: %w", ErrConnBroken, err))
			return
		}
		if env.Type == wire.TypeError && env.ID == wire.UnattributableID {
			var e wire.ErrorResponse
			if derr := wire.DecodePayload(env, &e); derr != nil {
				m.fail(fmt.Errorf("%w: unattributable server error", ErrConnBroken))
			} else {
				m.fail(fmt.Errorf("%w: unattributable server error: %v", ErrConnBroken, &e))
			}
			return
		}
		// The frame joins the connection's state before anyone decodes it,
		// its caller's own goroutine included, and whether or not a caller
		// still waits for it: the server committed it when it wrote it. Its
		// plan keeps its place among the frames and its own view of the
		// mirrored bits, which later frames leave as they are.
		if cerr := m.codec.Commit(&env); cerr != nil {
			m.fail(fmt.Errorf("%w: read response: %w", ErrConnBroken, cerr))
			return
		}
		m.mu.Lock()
		ch := m.pending[env.ID]
		delete(m.pending, env.ID)
		m.mu.Unlock()
		if ch != nil {
			ch <- muxResult{env: env, err: err} // buffered; never blocks
		}
		// No channel: the caller cancelled and unregistered. Drop the frame.
	}
}

// muxRoundTrip sends one request and waits for its response, decoding it
// into out (skipped when out is nil), with up to window-1 other requests
// from concurrent callers in flight on the same connection. A TypeError
// response is returned as a *wire.ErrorResponse error. A poisoned connection
// is redialed first.
func (c *Client) muxRoundTrip(ctx context.Context, reqType, respType wire.MsgType, payload, out any) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return fmt.Errorf("repclient: %s: %w", reqType, err)
	}
	if c.mux.dead() {
		if err := c.redialLocked(ctx); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.nextID++
	id, m := c.nextID, c.mux
	// Release the client lock before the round trip so concurrent callers
	// pipeline their requests onto the shared connection.
	c.mu.Unlock()

	// The configured timeout backstops calls whose context carries no
	// deadline. A pooled bare timer is used instead of context.WithTimeout:
	// the derived context's wiring costs close to a microsecond per request,
	// which is real money on a transport whose round trips amortise to a
	// few microseconds.
	var timeoutC <-chan time.Time
	if _, ok := ctx.Deadline(); !ok && c.timeout > 0 {
		t := muxTimers.Get().(*time.Timer)
		t.Reset(c.timeout)
		defer func() {
			if !t.Stop() {
				select {
				case <-t.C:
				default:
				}
			}
			muxTimers.Put(t)
		}()
		timeoutC = t.C
	}
	env, err := m.codec.Encode(reqType, id, payload)
	if err != nil {
		return err
	}
	if err := m.acquire(ctx, timeoutC); err != nil {
		return fmt.Errorf("repclient: %s: %w", reqType, err)
	}
	defer m.release()
	ch, err := m.register(id)
	if err != nil {
		return c.transportErr(ctx, reqType, err)
	}
	if err := m.send(env); err != nil {
		m.unregister(id)
		return c.transportErr(ctx, reqType, err)
	}
	select {
	case r := <-ch:
		if r.err != nil {
			return c.transportErr(ctx, reqType, r.err)
		}
		err := decodeMuxResponse(m.codec, r.env, respType, out)
		if r.env.Binary && errors.Is(err, wire.ErrBadMessage) {
			// The codec refused the frame, and with it the connection's
			// state: the next call redials.
			m.fail(fmt.Errorf("%w: decode response: %w", ErrConnBroken, err))
		}
		return err
	case <-ctx.Done():
		// Abandon the request: drop the pending slot so the late response
		// (if any) is discarded by id, and leave the connection healthy for
		// the other in-flight calls.
		m.unregister(id)
		return fmt.Errorf("repclient: %s: %w", reqType, ctx.Err())
	case <-timeoutC:
		m.unregister(id)
		return fmt.Errorf("repclient: %s: %w", reqType, context.DeadlineExceeded)
	}
}

// decodeMuxResponse converts a demultiplexed response envelope into the
// caller's typed result: a TypeError frame becomes a *wire.ErrorResponse
// error, an unexpected type is an error without poisoning the connection.
func decodeMuxResponse(codec wire.Codec, env wire.Envelope, respType wire.MsgType, out any) error {
	if env.Type == wire.TypeError {
		var e wire.ErrorResponse
		if err := codec.DecodePayload(env, &e); err != nil {
			return err
		}
		return &e
	}
	if env.Type != respType {
		return fmt.Errorf("repclient: unexpected response type %s", env.Type)
	}
	if out == nil {
		return nil
	}
	return codec.DecodePayload(env, out)
}

// handshake runs the client half of the handshake on a fresh connection:
// send the hello, read the server's ack, and pick the codec its revision
// calls for (wire.CodecFor). It is bounded by timeout; the deadline is
// cleared before returning so request deadlines start fresh.
func handshake(nc net.Conn, timeout time.Duration) (*bufio.Reader, wire.Codec, error) {
	if timeout > 0 {
		if err := nc.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, wire.Codec{}, err
		}
	}
	if err := wire.WriteHello(nc); err != nil {
		return nil, wire.Codec{}, err
	}
	reader := bufio.NewReader(nc)
	rev, err := wire.ReadAck(reader)
	if err != nil {
		return nil, wire.Codec{}, err
	}
	if err := nc.SetDeadline(time.Time{}); err != nil {
		return nil, wire.Codec{}, err
	}
	return reader, wire.CodecFor(rev), nil
}
