package repclient

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/wire"
)

func TestDialFailure(t *testing.T) {
	// Reserve a port, close it, then dial: connection refused.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Dial(addr, WithTimeout(time.Second)); err == nil {
		t.Fatal("dial to closed port must fail")
	}
}

// reply writes one response frame in the binary codec, standing alone: a
// payload without names.
func reply(conn net.Conn, typ wire.MsgType, id uint64, payload any) error {
	return replyIn(conn, wire.V2Codec, typ, id, payload)
}

// replyIn writes one response frame in codec, a fake server's end of the
// connection, and commits it as repserver does once it is written.
func replyIn(conn net.Conn, codec wire.Codec, typ wire.MsgType, id uint64, payload any) error {
	env, err := codec.Encode(typ, id, payload)
	if err != nil {
		return err
	}
	if err := wire.WriteV2(conn, env); err != nil {
		return err
	}
	return codec.Commit(&env)
}

// readIn reads one request frame at a fake server's end of the connection,
// whose codec is codec, committing it before anything decodes it, as
// repserver does.
func readIn(reader *bufio.Reader, codec wire.Codec) (wire.Envelope, error) {
	env, err := wire.ReadV2(reader)
	if err == nil {
		err = codec.Commit(&env)
	}
	return env, err
}

// multiV2Server accepts connections until the test ends, completes the
// server half of the handshake on each, and runs handler with the 1-based
// accept index.
func multiV2Server(t *testing.T, handler func(n int, conn net.Conn, reader *bufio.Reader)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for n := 1; ; n++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(n int, conn net.Conn) {
				defer func() { _ = conn.Close() }()
				reader := bufio.NewReader(conn)
				if _, err := wire.ReadHello(reader); err != nil {
					return
				}
				if err := wire.WriteHelloAck(conn); err != nil {
					return
				}
				handler(n, conn, reader)
			}(n, conn)
		}
	}()
	return ln.Addr().String()
}

func TestTimeout(t *testing.T) {
	addr := fakeV2Server(t, func(conn net.Conn, reader *bufio.Reader) {
		// Read the request but never answer.
		_, _ = wire.ReadV2(reader)
		time.Sleep(2 * time.Second)
	})
	c, err := Dial(addr, WithTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	start := time.Now()
	if err := c.Ping(); err == nil {
		t.Fatal("ping against silent server must time out")
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout took too long")
	}
}

// TestMismatchedResponseID: an answer under another request's id is never
// taken as this request's answer — it is dropped, and the request times out.
func TestMismatchedResponseID(t *testing.T) {
	addr := fakeV2Server(t, func(conn net.Conn, reader *bufio.Reader) {
		if _, err := wire.ReadV2(reader); err != nil {
			return
		}
		_ = reply(conn, wire.TypePong, 999, nil)
		time.Sleep(time.Second)
	})
	c, err := Dial(addr, WithTimeout(200*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Ping(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the request to time out", err)
	}
}

// TestUnexpectedResponseType: an answer of the wrong type — or of a type code
// this build has no name for — fails its own request and leaves the
// connection serving.
func TestUnexpectedResponseType(t *testing.T) {
	addr := fakeV2Server(t, func(conn net.Conn, reader *bufio.Reader) {
		for n := 1; ; n++ {
			env, err := wire.ReadV2(reader)
			if err != nil {
				return
			}
			switch n {
			case 1:
				err = reply(conn, wire.TypeHistoryR, env.ID, wire.HistoryResponse{})
			case 2:
				unknown := []byte{0, 0, 0, 12, 99, 0}
				unknown = binary.BigEndian.AppendUint64(unknown, env.ID)
				_, err = conn.Write(append(unknown, '{', '}'))
			default:
				err = reply(conn, wire.TypePong, env.ID, nil)
			}
			if err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Ping(); err == nil || !strings.Contains(err.Error(), "unexpected response type") {
		t.Fatalf("wrong response type: err = %v", err)
	}
	if err := c.Ping(); !errors.Is(err, wire.ErrUnknownType) || errors.Is(err, ErrConnBroken) {
		t.Fatalf("unknown response type: err = %v, want wire.ErrUnknownType", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping on the same connection afterwards: %v", err)
	}
}

func TestRemoteErrorSurfaces(t *testing.T) {
	addr := fakeV2Server(t, func(conn net.Conn, reader *bufio.Reader) {
		env, err := wire.ReadV2(reader)
		if err != nil {
			return
		}
		_ = reply(conn, wire.TypeError, env.ID, wire.ErrorResponse{Code: "boom", Message: "x"})
	})
	c, err := Dial(addr, WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	err = c.Ping()
	var remote *wire.ErrorResponse
	if !errors.As(err, &remote) || remote.Code != "boom" {
		t.Fatalf("err = %v", err)
	}
}

func TestClosedClient(t *testing.T) {
	addr := fakeV2Server(t, func(net.Conn, *bufio.Reader) {})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v", err)
	}
}

// TestPoisonedConnectionRedials: a connection that dies under a request
// fails that request with ErrConnBroken and poisons the client; the next
// call redials and succeeds on a fresh connection.
func TestPoisonedConnectionRedials(t *testing.T) {
	var accepted atomic.Int32
	addr := multiV2Server(t, func(n int, conn net.Conn, reader *bufio.Reader) {
		accepted.Store(int32(n))
		for {
			env, err := wire.ReadV2(reader)
			if err != nil || n == 1 {
				return // the first connection hangs up under its request
			}
			if err := reply(conn, wire.TypePong, env.ID, nil); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	if err := c.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("first ping: err = %v, want ErrConnBroken", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after redial: %v", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("third ping: %v", err)
	}
	if got := accepted.Load(); got != 2 {
		t.Fatalf("server accepted %d connections, want 2", got)
	}
}

// TestRedialFailureIsErrConnBroken: when the connection is poisoned and the
// server is gone, the next call fails fast with ErrConnBroken.
func TestRedialFailureIsErrConnBroken(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		reader := bufio.NewReader(conn)
		if _, err := wire.ReadHello(reader); err != nil {
			return
		}
		if err := wire.WriteHelloAck(conn); err != nil {
			return
		}
		_, _ = wire.ReadV2(reader) // swallow the request and hang up
	}()
	c, err := Dial(ln.Addr().String(), WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("ping on a connection the server hung up: err = %v", err)
	}
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); !errors.Is(err, ErrConnBroken) || !strings.Contains(err.Error(), "redial") {
		t.Fatalf("err = %v, want ErrConnBroken from the redial", err)
	}
}

// TestUnattributableErrorIsConnectionFatal: an error frame with id 0 means
// the server could not tell which request failed (mid-frame read error), so
// the stream is desynchronised and the client must redial.
func TestUnattributableErrorIsConnectionFatal(t *testing.T) {
	addr := multiV2Server(t, func(n int, conn net.Conn, reader *bufio.Reader) {
		for {
			env, err := wire.ReadV2(reader)
			if err != nil {
				return
			}
			if n == 1 {
				_ = reply(conn, wire.TypeError, wire.UnattributableID,
					wire.ErrorResponse{Code: wire.CodeBadRequest, Message: "bad frame"})
				return
			}
			if err := reply(conn, wire.TypePong, env.ID, nil); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Ping(); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("err = %v, want ErrConnBroken", err)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after redial: %v", err)
	}
}

// TestCtxCancellationInterruptsBlockedRead: cancelling the context releases
// a round trip blocked on a silent server, well before the client timeout.
func TestCtxCancellationInterruptsBlockedRead(t *testing.T) {
	addr := fakeV2Server(t, func(conn net.Conn, reader *bufio.Reader) {
		_, _ = wire.ReadV2(reader)
		time.Sleep(2 * time.Second)
	})
	c, err := Dial(addr, WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err = c.PingCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not interrupt the blocked read promptly")
	}
}

// batchEchoServer answers assess.batch requests with one synthetic item per
// requested server (ghosts get a per-item error), recording each chunk size.
func batchEchoServer(t *testing.T, chunkSizes *[]int) string {
	t.Helper()
	return fakeV2Server(t, func(conn net.Conn, reader *bufio.Reader) {
		codec := wire.CodecFor(wire.VersionV2)
		for {
			env, err := readIn(reader, codec)
			if err != nil {
				return
			}
			var req wire.AssessBatchRequest
			if err := codec.DecodePayload(env, &req); err != nil {
				return
			}
			*chunkSizes = append(*chunkSizes, len(req.Servers))
			resp := wire.AssessBatchResponse{Items: make([]wire.AssessBatchItem, len(req.Servers))}
			for i, s := range req.Servers {
				resp.Items[i].Server = s
				if s == "ghost" {
					resp.Items[i].Error = &wire.ErrorResponse{Code: wire.CodeUnknownServer, Message: "no records"}
					continue
				}
				resp.Items[i].Accept = true
			}
			if err := replyIn(conn, codec, wire.TypeAssessBR, env.ID, resp); err != nil {
				return
			}
		}
	})
}

func TestAssessBatchChunking(t *testing.T) {
	var chunks []int
	addr := batchEchoServer(t, &chunks)
	c, err := Dial(addr, WithTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// 600 servers must split into 256 + 256 + 88 and reassemble in request
	// order, with the per-item error of the one ghost intact.
	servers := make([]feedback.EntityID, 600)
	for i := range servers {
		servers[i] = feedback.EntityID("s" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i/60)))
	}
	servers[300] = "ghost"
	items, err := c.AssessBatch(servers, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(servers) {
		t.Fatalf("items = %d, want %d", len(items), len(servers))
	}
	for i, item := range items {
		if item.Server != servers[i] {
			t.Fatalf("item %d answers %q, want %q", i, item.Server, servers[i])
		}
	}
	if items[300].Error == nil || items[300].Error.Code != wire.CodeUnknownServer {
		t.Fatalf("ghost item = %+v", items[300])
	}
	if items[299].Error != nil || !items[299].Accept {
		t.Fatalf("neighbour of ghost = %+v", items[299])
	}
	want := []int{wire.MaxAssessBatch, wire.MaxAssessBatch, 600 - 2*wire.MaxAssessBatch}
	if len(chunks) != len(want) {
		t.Fatalf("chunks = %v, want %v", chunks, want)
	}
	for i := range want {
		if chunks[i] != want[i] {
			t.Fatalf("chunks = %v, want %v", chunks, want)
		}
	}
}

func TestAssessBatchEmpty(t *testing.T) {
	var chunks []int
	addr := batchEchoServer(t, &chunks)
	cl, err := Dial(addr, WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	if _, err := cl.AssessBatch(nil, 0.5); err == nil {
		t.Fatal("empty batch must fail client-side")
	}
	if len(chunks) != 0 {
		t.Fatalf("empty batch reached the server: %v", chunks)
	}
}

func TestAssessBatchItemCountMismatch(t *testing.T) {
	addr := fakeV2Server(t, func(conn net.Conn, reader *bufio.Reader) {
		env, err := wire.ReadV2(reader)
		if err != nil {
			return
		}
		// One item short: the client must refuse to misalign the rest.
		_ = replyIn(conn, wire.CodecFor(wire.VersionV2), wire.TypeAssessBR, env.ID, wire.AssessBatchResponse{Items: []wire.AssessBatchItem{{Server: "a"}}})
	})
	c, err := Dial(addr, WithTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	_, err = c.AssessBatch([]feedback.EntityID{"a", "b"}, 0.5)
	if err == nil || !strings.Contains(err.Error(), "items") {
		t.Fatalf("mismatched item count error = %v", err)
	}
}

// TestConnectionBindingsFollowTheFrames: a verdict frame's threshold
// bindings join the connection's as the frame is read, whether or not its
// caller still waits — a caller that timed out leaves the next frame, which
// leans on its bindings, decodable — and a redialed connection starts with
// none: its first verdict carries its own.
func TestConnectionBindingsFollowTheFrames(t *testing.T) {
	verdict := func(rows ...behavior.SuffixResult) wire.AssessResponse {
		return wire.AssessResponse{Accept: true, Assessment: core.Assessment{
			Server: "s", Records: 40, Good: 38, Trust: 0.95, Tester: "multi", TrustFunc: "average",
			Verdict: behavior.Verdict{Honest: true, Suffixes: rows},
		}}
	}
	four := behavior.SuffixResult{Transactions: 40, Windows: 4, PHat: 0.95, Distance: 0.12, Threshold: 0.2, Pass: true}
	two := behavior.SuffixResult{Transactions: 20, Windows: 2, PHat: 0.9, Distance: 0.3, Threshold: 0.25}
	answers := map[feedback.EntityID]wire.AssessResponse{
		"slow": verdict(four, two), // binds both rows' grid points
		"same": verdict(four, two), // binds nothing after "slow"
	}
	bound := make(chan bool, 4) // whether each "same" frame carried a binding section
	addr := multiV2Server(t, func(n int, conn net.Conn, reader *bufio.Reader) {
		codec := wire.CodecFor(wire.VersionV2) // the connection's own bindings and names, as repserver keeps them
		for {
			env, err := readIn(reader, codec)
			if err != nil {
				return
			}
			var req wire.AssessRequest
			if err := codec.DecodePayload(env, &req); err != nil || req.Server == "hangup" {
				return
			}
			if req.Server == "slow" {
				time.Sleep(300 * time.Millisecond) // past the caller's timeout
			}
			resp, err := codec.Encode(wire.TypeAssessR, env.ID, answers[req.Server])
			if err != nil || wire.WriteV2(conn, resp) != nil || codec.Commit(&resp) != nil {
				return
			}
			if req.Server == "same" {
				bound <- resp.Bindings
			}
		}
	})
	c, err := Dial(addr, WithTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	if _, err := c.Assess("slow", 0.9); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow: err = %v, want a timeout", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := c.AssessCtx(ctx, "same", 0.9)
	if err != nil || !reflect.DeepEqual(got, answers["same"]) {
		t.Fatalf("the frame after a timed-out caller's: %+v, %v", got, err)
	}
	if <-bound {
		t.Fatal("the server bound again what the timed-out caller's frame bound")
	}
	if _, err := c.AssessCtx(ctx, "hangup", 0.9); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("hangup: err = %v, want ErrConnBroken", err)
	}
	got, err = c.AssessCtx(ctx, "same", 0.9)
	if err != nil || !reflect.DeepEqual(got, answers["same"]) {
		t.Fatalf("the first verdict after a redial: %+v, %v", got, err)
	}
	if !<-bound {
		t.Fatal("the first verdict on a redialed connection carried no bindings")
	}
}
