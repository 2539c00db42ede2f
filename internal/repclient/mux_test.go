package repclient

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"honestplayer/internal/wire"
)

// fakeV2Server accepts one connection, completes the server side of the v2
// handshake, and hands the framed connection to handler.
func fakeV2Server(t *testing.T, handler func(net.Conn, *bufio.Reader)) string {
	t.Helper()
	return fakeServer(t, func(conn net.Conn) {
		reader := bufio.NewReader(conn)
		if _, err := wire.ReadHello(reader); err != nil {
			return
		}
		if err := wire.WriteHelloAck(conn); err != nil {
			return
		}
		handler(conn, reader)
	})
}

// TestMuxOutOfOrderCompletion: the server answers two pipelined requests in
// reverse order; each caller still receives its own response, paired by id.
func TestMuxOutOfOrderCompletion(t *testing.T) {
	addr := fakeV2Server(t, func(conn net.Conn, reader *bufio.Reader) {
		var envs []wire.Envelope
		for len(envs) < 2 {
			env, err := wire.ReadV2(reader)
			if err != nil {
				return
			}
			envs = append(envs, env)
		}
		for i := len(envs) - 1; i >= 0; i-- {
			var resp wire.Envelope
			var err error
			switch envs[i].Type {
			case wire.TypePing:
				resp, err = wire.V2Codec.Encode(wire.TypePong, envs[i].ID, nil)
			case wire.TypeHistory:
				resp, err = wire.V2Codec.Encode(wire.TypeHistoryR, envs[i].ID, wire.HistoryResponse{Total: 7})
			}
			if err != nil {
				return
			}
			if err := wire.WriteV2(conn, resp); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	var wg sync.WaitGroup
	var pingErr, histErr error
	var total int
	wg.Add(2)
	go func() { defer wg.Done(); pingErr = c.Ping() }()
	go func() { defer wg.Done(); _, total, histErr = c.History("srv", 0) }()
	wg.Wait()
	if pingErr != nil || histErr != nil {
		t.Fatalf("ping err = %v, history err = %v", pingErr, histErr)
	}
	if total != 7 {
		t.Fatalf("history total = %d, want 7 (response misrouted)", total)
	}
}

// TestMuxPipelinesConcurrentRequests: the server refuses to answer anything
// until it has read all n requests — only a client that truly keeps n
// requests in flight on one connection can finish.
func TestMuxPipelinesConcurrentRequests(t *testing.T) {
	const n = 8
	addr := fakeV2Server(t, func(conn net.Conn, reader *bufio.Reader) {
		var ids []uint64
		for len(ids) < n {
			env, err := wire.ReadV2(reader)
			if err != nil {
				return
			}
			ids = append(ids, env.ID)
		}
		for _, id := range ids {
			resp, err := wire.V2Codec.Encode(wire.TypePong, id, nil)
			if err != nil {
				return
			}
			if err := wire.WriteV2(conn, resp); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, WithWindow(n), WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- c.Ping() }()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("pipelined ping %d: %v", i, err)
		}
	}
}

// TestMuxCancelLeavesOthersInFlight: cancelling one request must neither
// disturb a concurrent request on the same connection nor poison it — its
// late response is dropped by id and the connection keeps serving.
func TestMuxCancelLeavesOthersInFlight(t *testing.T) {
	release := make(chan struct{})
	addr := fakeV2Server(t, func(conn net.Conn, reader *bufio.Reader) {
		for {
			env, err := wire.ReadV2(reader)
			if err != nil {
				return
			}
			if env.Type == wire.TypeHistory {
				// The request that will be cancelled: answer only when
				// released, long after the caller gave up.
				go func(id uint64) {
					<-release
					resp, _ := wire.V2Codec.Encode(wire.TypeHistoryR, id, wire.HistoryResponse{})
					_ = wire.WriteV2(conn, resp)
				}(env.ID)
				continue
			}
			resp, err := wire.V2Codec.Encode(wire.TypePong, env.ID, nil)
			if err != nil {
				return
			}
			if err := wire.WriteV2(conn, resp); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	ctx, cancel := context.WithCancel(context.Background())
	histDone := make(chan error, 1)
	go func() { _, _, err := c.HistoryCtx(ctx, "srv", 0); histDone <- err }()
	// Let the history request reach the wire, then abandon it.
	time.Sleep(50 * time.Millisecond)
	cancel()
	if err := <-histDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled history err = %v, want context.Canceled", err)
	}
	// The connection must still serve other requests...
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after cancel: %v", err)
	}
	// ...including after the abandoned request's late response arrives.
	close(release)
	time.Sleep(50 * time.Millisecond)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after late response: %v", err)
	}
	if c.mux.dead() {
		t.Fatal("the late response poisoned the connection")
	}
}

// TestMuxUnattributableErrorPoisonsAllInFlight: a server error frame with
// id 0 is connection-fatal — every pending request fails with ErrConnBroken
// and the client redials on the next call.
func TestMuxUnattributableErrorPoisonsAllInFlight(t *testing.T) {
	const n = 4
	dials := make(chan struct{}, 8)
	addr := multiV2Server(t, func(conn int, nc net.Conn, reader *bufio.Reader) {
		dials <- struct{}{}
		poison := conn == 1
		for seen := 1; ; seen++ {
			env, err := wire.ReadV2(reader)
			if err != nil {
				return
			}
			if poison && seen == n {
				// All n requests are in flight: answer with the
				// unattributable error and hang up.
				_ = reply(nc, wire.TypeError, wire.UnattributableID,
					wire.ErrorResponse{Code: wire.CodeBadRequest, Message: "desync"})
				return
			}
			if !poison {
				if err := reply(nc, wire.TypePong, env.ID, nil); err != nil {
					return
				}
			}
		}
	})

	c, err := Dial(addr, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	<-dials

	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- c.Ping() }()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; !errors.Is(err, ErrConnBroken) {
			t.Fatalf("in-flight ping %d err = %v, want ErrConnBroken", i, err)
		}
	}
	// The next call redials (second accept) and succeeds.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after redial: %v", err)
	}
	select {
	case <-dials:
	default:
		t.Fatal("client did not redial after poisoning")
	}
}

// TestMuxRedialWithQueuedRequests: when the connection dies under
// concurrent load, in-flight requests fail but the client recovers — a
// following burst redials and completes on a fresh connection.
func TestMuxRedialWithQueuedRequests(t *testing.T) {
	const n = 6
	addr := multiV2Server(t, func(conn int, nc net.Conn, reader *bufio.Reader) {
		for seen := 1; ; seen++ {
			env, err := wire.ReadV2(reader)
			if err != nil {
				return
			}
			if conn == 1 && seen >= 2 {
				return // hang up mid-burst with requests queued
			}
			if err := reply(nc, wire.TypePong, env.ID, nil); err != nil {
				return
			}
		}
	})

	c, err := Dial(addr, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// First burst: the server hangs up with requests queued; every caller
	// must get an error, none may hang.
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); _ = c.Ping() }()
	}
	wg.Wait()
	// Second burst: the client redials; all succeed.
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- c.Ping() }()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("post-redial ping %d: %v", i, err)
		}
	}
}

// TestMuxWindowBoundsInFlight: with a window of 1 the client degrades to
// lock-step over v2 — each request waits for a slot, and a concurrent burst
// still completes without deadlocking on the window semaphore.
func TestMuxWindowBoundsInFlight(t *testing.T) {
	addr := fakeV2Server(t, func(conn net.Conn, reader *bufio.Reader) {
		for {
			env, err := wire.ReadV2(reader)
			if err != nil {
				return
			}
			resp, _ := wire.V2Codec.Encode(wire.TypePong, env.ID, nil)
			if err := wire.WriteV2(conn, resp); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, WithWindow(1), WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Ping(); err != nil {
				t.Errorf("ping: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestProtoV2RequiredFailsAgainstJSONServer: a JSON-only server — one built
// before the frame became the only way onto a node — reads the hello as a
// garbage JSON line, answers with its unattributable error line and closes.
// That is a dial error, not something the client can talk to.
func TestProtoV2RequiredFailsAgainstJSONServer(t *testing.T) {
	addr := fakeServer(t, func(conn net.Conn) {
		if _, err := bufio.NewReader(conn).ReadString('\n'); err == nil {
			_, _ = conn.Write([]byte(`{"v":1,"type":"error","id":0,"payload":{"code":"bad_request","message":"bad frame"}}` + "\n"))
		}
	})
	if _, err := Dial(addr, WithTimeout(time.Second)); !errors.Is(err, wire.ErrNotV2) {
		t.Fatalf("dial err = %v, want wire.ErrNotV2", err)
	}
}

// gatedConn records every Write; the first one waits until open is closed.
type gatedConn struct {
	net.Conn
	entered, open chan struct{}
	mu            sync.Mutex
	writes        [][]byte
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	first := len(c.writes) == 0
	c.writes = append(c.writes, bytes.Clone(p))
	c.mu.Unlock()
	if first {
		close(c.entered)
		<-c.open
	}
	return len(p), nil
}

func (c *gatedConn) Close() error { return nil }

// TestMuxBurstBound: while the flusher's write is stalled, a sender whose
// frame takes the burst past wire.MaxBurst writes the burst itself, after
// the stalled write: no write carries more than the bound and the frame
// that passed it, and the frames leave in the order they were sent.
func TestMuxBurstBound(t *testing.T) {
	pr, pw := io.Pipe() // the responses: none ever arrive
	defer func() { _ = pw.Close() }()
	nc := &gatedConn{entered: make(chan struct{}), open: make(chan struct{})}
	m := newMux(nc, bufio.NewReader(pr), DefaultWindow, wire.V2Codec)
	defer m.fail(errors.New("test over"))
	const frames, size = 16, 300 << 10
	frame := func(id uint64) wire.Envelope {
		return wire.Envelope{Type: wire.TypePing, ID: id, Payload: make([]byte, size)}
	}
	if err := m.send(frame(1)); err != nil {
		t.Fatal(err)
	}
	<-nc.entered // the flusher is writing frame 1
	sent := make(chan error, 1)
	go func() {
		for id := uint64(2); id <= frames; id++ {
			if err := m.send(frame(id)); err != nil {
				sent <- err
				return
			}
		}
		sent <- nil
	}()
	for pending := 0; pending <= wire.MaxBurst; time.Sleep(time.Millisecond) {
		m.wmu.Lock()
		pending = m.burst.Len()
		m.wmu.Unlock()
	}
	close(nc.open)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	frameLen := size + 14 // and the length, type, flags and id before it
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		nc.mu.Lock()
		written := len(bytes.Join(nc.writes, nil))
		nc.mu.Unlock()
		if written == frames*frameLen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d bytes written", written, frames*frameLen)
		}
	}
	nc.mu.Lock()
	defer nc.mu.Unlock()
	for i, w := range nc.writes {
		if len(w) > wire.MaxBurst+frameLen {
			t.Fatalf("write %d carries %d B, past the %d B bound by more than a frame", i, len(w), wire.MaxBurst)
		}
	}
	r := bytes.NewReader(bytes.Join(nc.writes, nil))
	for id := uint64(1); id <= frames; id++ {
		if env, err := wire.ReadV2(r); err != nil || env.ID != id {
			t.Fatalf("frame %d on the wire: id %d, %v", id, env.ID, err)
		}
	}
	t.Logf("%d frames of %d B in %d writes", frames, frameLen, len(nc.writes))
}

// fakeServer accepts one connection and runs handler on it.
func fakeServer(t *testing.T, handler func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		handler(conn)
	}()
	return ln.Addr().String()
}
