package repserver

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/repclient"
	"honestplayer/internal/service"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
	"honestplayer/internal/wire"
)

// blockingTester stalls every behaviour test until released, so tests can
// hold an assess request in flight deterministically. started is signalled
// once per Test call.
type blockingTester struct {
	started chan struct{}
	release chan struct{}
}

func (bt *blockingTester) Name() string { return "blocking" }

func (bt *blockingTester) Test(h *feedback.History) (behavior.Verdict, error) {
	select {
	case bt.started <- struct{}{}:
	default:
	}
	<-bt.release
	return behavior.Verdict{Honest: true}, nil
}

// blockingServer starts a server whose assess path stalls until the
// returned tester is released.
func blockingServer(t *testing.T, cfg Config) (*Server, *blockingTester) {
	t.Helper()
	bt := &blockingTester{started: make(chan struct{}, 1), release: make(chan struct{})}
	tp, err := core.NewTwoPhase(bt, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Assessor = tp
	srv, err := New("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	return srv, bt
}

func testAssessor(t *testing.T) *core.TwoPhase {
	t.Helper()
	tester, err := behavior.NewMulti(behavior.Config{
		Calibrator: stats.NewCalibrator(stats.CalibrationConfig{Seed: 1, Replicates: 200}, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := core.NewTwoPhase(tester, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// startServer starts a server on an ephemeral port and registers cleanup.
func startServer(t *testing.T) *Server {
	t.Helper()
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv
}

func dial(t *testing.T, srv *Server) *repclient.Client {
	t.Helper()
	return dialAddr(t, srv.Addr())
}

func dialAddr(t *testing.T, addr string) *repclient.Client {
	t.Helper()
	c, err := repclient.Dial(addr, repclient.WithTimeout(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// eachFraming runs fn once per payload codec, fn dialing through connect:
// "v2" dials the server directly and speaks binary, "json" dials it through
// skewRelay and speaks the JSON bridge. Both are served by the same
// connection loop, so whatever that loop guarantees — draining, deadlines,
// forced shutdown — must hold on each.
func eachFraming(t *testing.T, fn func(t *testing.T, connect func(*Server) *repclient.Client)) {
	t.Run("json", func(t *testing.T) {
		fn(t, func(srv *Server) *repclient.Client { return dialAddr(t, skewRelay(t, srv.Addr())) })
	})
	t.Run("v2", func(t *testing.T) {
		fn(t, func(srv *Server) *repclient.Client { return dial(t, srv) })
	})
}

// skewRelay listens in front of addr and rewrites the handshake of every
// connection through it so that each end sees the other one codec revision
// away — the hello offers VersionV2+1 to the server, the ack names
// VersionV2-1 to the client — and the two real ends speak the JSON bridge.
func skewRelay(t *testing.T, addr string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", addr)
			if err != nil {
				_ = client.Close()
				continue
			}
			go relaySkewed(server, client, 5, wire.VersionV2+1)
			go relaySkewed(client, server, 4, wire.VersionV2-1)
		}
	}()
	return ln.Addr().String()
}

// relaySkewed copies src to dst with the revision byte of the handshake
// message in its first n bytes replaced by rev, and closes both ends when
// src ends.
func relaySkewed(dst, src net.Conn, n int, rev byte) {
	defer func() { _ = dst.Close(); _ = src.Close() }()
	head := make([]byte, n)
	if _, err := io.ReadFull(src, head); err != nil {
		return
	}
	head[3] = rev
	if _, err := dst.Write(head); err == nil {
		_, _ = io.Copy(dst, src)
	}
}

// rawConn dials srv and completes a handshake offering codec revision rev —
// wire.VersionV2 for a binary connection, anything else for a bridged one.
func rawConn(t *testing.T, srv *Server, rev byte) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write([]byte{wire.HelloMagic, 'W', '2', rev, '\n'}); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	if _, err := wire.ReadAck(r); err != nil {
		t.Fatal(err)
	}
	return conn, r
}

// send writes one request frame in codec, the client end of conn's
// connection (wire.CodecFor), and commits it, as repclient does once a
// frame is written.
func send(t *testing.T, conn net.Conn, codec wire.Codec, typ wire.MsgType, id uint64, payload any) {
	t.Helper()
	env, err := codec.Encode(typ, id, payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteV2(conn, env); err != nil {
		t.Fatal(err)
	}
	if err := codec.Commit(&env); err != nil {
		t.Fatal(err)
	}
}

func rec(s, c feedback.EntityID, good bool, at int64) feedback.Feedback {
	r := feedback.Negative
	if good {
		r = feedback.Positive
	}
	return feedback.Feedback{Time: time.Unix(at, 0).UTC(), Server: s, Client: c, Rating: r}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("127.0.0.1:0", Config{}); err == nil {
		t.Fatal("nil assessor must fail")
	}
}

func TestPing(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if srv.Metrics().Value("requests") == uint64(0) {
		t.Fatal("request not counted")
	}
}

func TestSubmitAndHistory(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)
	stored, err := c.Submit(rec("srv", "alice", true, 1))
	if err != nil || !stored {
		t.Fatalf("submit: %v %v", stored, err)
	}
	// Duplicate.
	stored, err = c.Submit(rec("srv", "alice", true, 1))
	if err != nil || stored {
		t.Fatalf("duplicate submit: %v %v", stored, err)
	}
	_, err = c.Submit(rec("srv", "bob", false, 2))
	if err != nil {
		t.Fatal(err)
	}
	recs, total, err := c.History("srv", 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || len(recs) != 2 {
		t.Fatalf("history = %d/%d", len(recs), total)
	}
	if !recs[0].Time.Before(recs[1].Time) {
		t.Fatal("history out of order")
	}
	// Limit keeps the most recent records.
	recs, total, err = c.History("srv", 1)
	if err != nil {
		t.Fatal(err)
	}
	if total != 2 || len(recs) != 1 || recs[0].Client != "bob" {
		t.Fatalf("limited history = %+v total=%d", recs, total)
	}
}

func TestSubmitInvalid(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)
	_, err := c.Submit(feedback.Feedback{})
	var remote *wire.ErrorResponse
	if !errors.As(err, &remote) || remote.Code != "invalid_feedback" {
		t.Fatalf("err = %v", err)
	}
	// The connection survives the error.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after error: %v", err)
	}
}

func TestAssessEndToEnd(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)

	// Feed an honest history via the network.
	rng := stats.NewRNG(42)
	for i := 0; i < 300; i++ {
		if _, err := c.Submit(rec("honest", feedback.EntityID(rune('a'+rng.Intn(20))), rng.Bernoulli(0.95), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := c.Assess("honest", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Accept || resp.Assessment.Suspicious {
		t.Fatalf("honest server rejected: %+v", resp.Assessment)
	}
	if resp.Assessment.Trust < 0.9 {
		t.Fatalf("trust = %v", resp.Assessment.Trust)
	}

	// A deterministic periodic attacker must be flagged.
	for i := 0; i < 300; i++ {
		if _, err := c.Submit(rec("attacker", "c", i%10 != 9, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	resp, err = c.Assess("attacker", 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accept || !resp.Assessment.Suspicious {
		t.Fatalf("periodic attacker accepted: %+v", resp.Assessment)
	}
}

func TestAssessUnknownServer(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)
	_, err := c.Assess("ghost", 0.9)
	var remote *wire.ErrorResponse
	if !errors.As(err, &remote) || remote.Code != "unknown_server" {
		t.Fatalf("err = %v", err)
	}
}

func TestHistoryMissingServerField(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)
	_, _, err := c.History("", 0)
	var remote *wire.ErrorResponse
	if !errors.As(err, &remote) || remote.Code != "bad_request" {
		t.Fatalf("err = %v", err)
	}
}

// TestMalformedFrameGetsErrorAndClose: a frame the server cannot parse gets
// the unattributable (id 0) error frame, and the connection closes.
func TestMalformedFrameGetsErrorAndClose(t *testing.T) {
	srv := startServer(t)
	conn, r := rawConn(t, srv, wire.VersionV2)
	// A body shorter than the type, flags and id it must hold.
	if _, err := conn.Write([]byte{0, 0, 0, 5, 1, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	env, err := wire.ReadV2(r)
	if err != nil {
		t.Fatalf("expected error frame, got %v", err)
	}
	if env.Type != wire.TypeError {
		t.Fatalf("type = %s", env.Type)
	}
	if env.ID != wire.UnattributableID {
		t.Fatalf("error frame id = %d, want %d", env.ID, wire.UnattributableID)
	}
	if _, err := wire.ReadV2(r); err == nil {
		t.Fatal("connection still open after a malformed frame")
	}
}

// TestBadVersionFrameErrorIsUnattributable: on a bridged connection a binary
// payload is in a codec revision the server does not assume it can read, so
// the frame is refused unread — even though its id parsed, with an id-0
// error frame: the server closes the connection afterwards, and id 0 is the
// documented connection-fatal signal. Echoing the request id here would
// make the client treat it as an ordinary per-request error and only notice
// the dead connection on its next call.
func TestBadVersionFrameErrorIsUnattributable(t *testing.T) {
	srv := startServer(t)
	conn, r := rawConn(t, srv, wire.VersionV2+1)
	send(t, conn, wire.CodecFor(wire.VersionV2), wire.TypeAssess, 9, wire.AssessRequest{Server: "s", Threshold: 0.5})
	env, err := wire.ReadV2(r)
	if err != nil {
		t.Fatalf("expected error frame, got %v", err)
	}
	if env.Type != wire.TypeError || env.ID != wire.UnattributableID || env.Binary {
		t.Fatalf("env = %+v, want a JSON %s with id %d", env, wire.TypeError, wire.UnattributableID)
	}
	var e wire.ErrorResponse
	if err := wire.DecodePayload(env, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeBadRequest {
		t.Fatalf("code = %q", e.Code)
	}
	// The connection is closed right after the error frame.
	if _, err := wire.ReadV2(r); err == nil {
		t.Fatal("connection still open after a binary payload on a bridged connection")
	}
	if got := srv.Metrics().Value("errors"); got != uint64(1) {
		t.Fatalf("errors = %v, want 1", got)
	}
}

// TestUnknownMessageType: a frame whose type code this build has no name for
// — one a newer peer added (99), or a retired one an older peer still sends
// (18, a revision-4 door's fwd.assess; 13 and 26, a revision-15 peer's
// gossip.digest and cluster.info) — is answered unknown_type under its own
// id, and the connection, with every request pipelined behind it, keeps
// being served.
func TestUnknownMessageType(t *testing.T) {
	for _, code := range []byte{99, 18, 13, 26} {
		srv := startServer(t)
		conn, r := rawConn(t, srv, wire.VersionV2)
		unknown := []byte{0, 0, 0, 12, code, 1, 0, 0, 0, 0, 0, 0, 0, 5, '{', '}'}
		if _, err := conn.Write(unknown); err != nil {
			t.Fatal(err)
		}
		send(t, conn, wire.CodecFor(wire.VersionV2), wire.TypePing, 6, nil)
		resp, err := wire.ReadV2(r)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.TypeError || resp.ID != 5 {
			t.Fatalf("code %d: resp = %+v", code, resp)
		}
		var e wire.ErrorResponse
		if err := wire.DecodePayload(resp, &e); err != nil {
			t.Fatal(err)
		}
		if e.Code != wire.CodeUnknownType || !strings.Contains(e.Message, fmt.Sprint(code)) {
			t.Fatalf("code %d: error = %+v", code, e)
		}
		if pong, err := wire.ReadV2(r); err != nil || pong.Type != wire.TypePong || pong.ID != 6 {
			t.Fatalf("code %d: request behind the unknown frame: %+v, %v", code, pong, err)
		}
	}
}

func TestCloseIsIdempotentAndStopsServe(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	// Give Serve a moment to start accepting.
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after Close", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return after Close")
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestServerClosesActiveConnections(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t)})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	c, err := repclient.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Requests on the closed connection now fail.
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded after server close")
	}
}

func TestClientClosed(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); !errors.Is(err, repclient.ErrClosed) {
		t.Fatalf("err = %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestSeed(t *testing.T) {
	srv := startServer(t)
	n, err := srv.Seed([]feedback.Feedback{rec("s", "c", true, 1), rec("s", "c", false, 2)})
	if err != nil || n != 2 {
		t.Fatalf("seed: %d %v", n, err)
	}
	if srv.Store().ServerLen("s") != 2 {
		t.Fatal("seeded records missing")
	}
	// Seed enters through applyBatch: a bad record is reported, its
	// siblings (one new, one duplicate) are not discarded.
	n, err = srv.Seed([]feedback.Feedback{rec("s", "d", true, 3), {Server: "s"}, rec("s", "c", true, 1)})
	if err == nil || n != 1 || srv.Store().ServerLen("s") != 3 {
		t.Fatalf("seed with a bad record: stored %d (server holds %d), err %v", n, srv.Store().ServerLen("s"), err)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := startServer(t)
	const clients = 5
	errs := make(chan error, clients)
	for g := 0; g < clients; g++ {
		go func(g int) {
			c, err := repclient.Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer func() { _ = c.Close() }()
			for i := 0; i < 50; i++ {
				if _, err := c.Submit(rec("shared", feedback.EntityID(rune('a'+g)), true, int64(g*1000+i))); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < clients; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Store().ServerLen("shared"); got != clients*50 {
		t.Fatalf("stored = %d, want %d", got, clients*50)
	}
}

// TestOversizedFrameRejected: a frame declaring a body beyond wire.MaxFrame
// is refused before a byte of it is buffered — an id-0 error frame, then the
// connection is cut.
func TestOversizedFrameRejected(t *testing.T) {
	srv := startServer(t)
	conn, r := rawConn(t, srv, wire.VersionV2)
	if _, err := conn.Write(binary.BigEndian.AppendUint32(nil, wire.MaxFrame+1)); err != nil {
		t.Fatal(err)
	}
	env, err := wire.ReadV2(r)
	if err != nil || env.Type != wire.TypeError || env.ID != wire.UnattributableID {
		t.Fatalf("got %+v, %v; want an id-0 error frame", env, err)
	}
	if _, err := wire.ReadV2(r); err == nil {
		t.Fatal("connection still open after an oversized frame")
	}
}

// TestResponseTooLargeIsAnErrorFrame: a response that encodes above
// wire.MaxFrame used to fail the write and drop the connection, taking every
// pipelined request with it and telling the client nothing. It must come back
// as an error frame for that request, and the same connection must keep
// serving. Unknown servers make the cheapest oversized response — each error
// slot names its server twice, so 256 ids of 9 KB fit a request frame and
// overflow the response.
func TestResponseTooLargeIsAnErrorFrame(t *testing.T) {
	eachFraming(t, func(t *testing.T, connect func(*Server) *repclient.Client) {
		srv := startServer(t)
		c := connect(srv)
		ids := make([]feedback.EntityID, wire.MaxAssessBatch)
		for i := range ids {
			ids[i] = feedback.EntityID(fmt.Sprintf("%03d%s", i, strings.Repeat("x", 9000)))
		}
		_, err := c.AssessBatch(ids, 0.5)
		var typed *wire.ErrorResponse
		if !errors.As(err, &typed) || typed.Code != wire.CodeResponseTooLarge {
			t.Fatalf("oversized response: err = %v, want a %s error frame", err, wire.CodeResponseTooLarge)
		}
		if err := c.Ping(); err != nil {
			t.Fatalf("ping after the oversized response: %v", err)
		}
		if items, err := c.AssessBatch(ids[:8], 0.5); err != nil || len(items) != 8 {
			t.Fatalf("smaller batch afterwards: %d items, err %v", len(items), err)
		}
		if got := srv.Metrics().Value("connections"); got != uint64(1) {
			t.Fatalf("server accepted %v connections, want 1: the client had to redial", got)
		}
	})
}

// TestStatsCounters pins what the counters of the rendered /metricz document
// count: single submit and assess frames, although served as batches of one,
// move none of the batch counters; batch frames move them by their items.
// (cmd/trustd's TestMetriczKeyTree pins the document's keys.)
func TestStatsCounters(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	_, _ = c.Submit(feedback.Feedback{}) // invalid -> error counter
	if _, err := c.Submit(rec("counted", "alice", true, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Assess("counted", 0.5); err != nil {
		t.Fatal(err)
	}
	// num reads the number at path in the document /metricz would serve now.
	num := func(path ...string) float64 {
		t.Helper()
		raw, err := json.Marshal(srv.Metrics())
		if err != nil {
			t.Fatal(err)
		}
		var cur any
		if err := json.Unmarshal(raw, &cur); err != nil {
			t.Fatal(err)
		}
		for _, k := range path {
			obj, _ := cur.(map[string]any)
			cur = obj[k]
		}
		v, ok := cur.(float64)
		if !ok {
			t.Fatalf("/metricz has no number at %v:\n%s", path, raw)
		}
		return v
	}
	if c, o, r, e := num("connections"), num("open_connections"), num("requests"), num("errors"); c != 1 || o != 1 || r != 4 || e != 1 {
		t.Fatalf("connections/open_connections/requests/errors = %v/%v/%v/%v, want 1/1/4/1", c, o, r, e)
	}
	batchCounters := func() [4]float64 {
		return [4]float64{num("submit_batches"), num("submit_batch_items"), num("submit_batch_rejects"), num("batch_items")}
	}
	if got := batchCounters(); got != [4]float64{} {
		t.Fatalf("single frames moved the batch counters submit_batches/submit_batch_items/submit_batch_rejects/batch_items: %v", got)
	}

	if _, err := c.SubmitBatchReport([]feedback.Feedback{rec("counted", "bob", true, 2), {}, rec("counted", "eve", false, 3)}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AssessBatch([]feedback.EntityID{"counted", "ghost"}, 0.5); err != nil {
		t.Fatal(err)
	}
	if got := batchCounters(); got != [4]float64{1, 3, 1, 2} {
		t.Fatalf("batch counters = %v, want [1 3 1 2]", got)
	}
	for typ, want := range map[wire.MsgType]float64{
		wire.TypePing: 1, wire.TypeSubmit: 2, wire.TypeAssess: 1, wire.TypeSubmitB: 1, wire.TypeAssessB: 1,
	} {
		if got := num("per_type", string(typ), "requests"); got != want {
			t.Errorf("per_type[%s].requests = %v, want %v", typ, got, want)
		}
	}
}

func TestPersistentRecorderSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	openServer := func() (*Server, *ledger.PersistentStore) {
		ps, err := ledger.OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New("127.0.0.1:0", Config{
			Assessor: testAssessor(t),
			Store:    ps.Store(),
			Recorder: ps,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		return srv, ps
	}

	srv, ps := openServer()
	c, err := repclient.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Submit(rec("durable", "alice", i%10 != 0, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	_ = c.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the history is still there.
	srv2, ps2 := openServer()
	defer func() {
		if err := srv2.Close(); err != nil {
			t.Error(err)
		}
		if err := ps2.Close(); err != nil {
			t.Error(err)
		}
	}()
	c2, err := repclient.Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c2.Close() }()
	recs, total, err := c2.History("durable", 0)
	if err != nil {
		t.Fatal(err)
	}
	if total != 50 || len(recs) != 50 {
		t.Fatalf("after restart: %d/%d records", len(recs), total)
	}
	// And new submits keep flowing.
	if _, err := c2.Submit(rec("durable", "bob", true, 1000)); err != nil {
		t.Fatal(err)
	}
	if srv2.Store().ServerLen("durable") != 51 {
		t.Fatal("post-restart submit not stored")
	}
}

func TestSubmitBatch(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)
	recs := []feedback.Feedback{
		rec("batched", "a", true, 1),
		rec("batched", "b", false, 2),
		rec("batched", "a", true, 1), // duplicate of the first
	}
	stored, dups, err := c.SubmitBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 2 || dups != 1 {
		t.Fatalf("batch: stored=%d dups=%d", stored, dups)
	}
	if srv.Store().ServerLen("batched") != 2 {
		t.Fatalf("store has %d", srv.Store().ServerLen("batched"))
	}
	// Invalid record mid-batch: it is reported per record with its request
	// index, and every valid record — before AND after it — is stored.
	resp, err := c.SubmitBatchReport([]feedback.Feedback{
		rec("batched", "c", true, 3),
		{},
		rec("batched", "d", false, 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stored != 2 || resp.Duplicates != 0 {
		t.Fatalf("batch report: %+v", resp)
	}
	if len(resp.Rejected) != 1 || resp.Rejected[0].Index != 1 {
		t.Fatalf("rejected = %+v", resp.Rejected)
	}
	if !strings.Contains(resp.Rejected[0].Reason, "invalid rating") {
		t.Fatalf("reason = %q", resp.Rejected[0].Reason)
	}
	if srv.Store().ServerLen("batched") != 4 {
		t.Fatalf("valid records not stored: %d", srv.Store().ServerLen("batched"))
	}
	// The convenience wrapper surfaces rejects as an error alongside counts.
	stored, _, err = c.SubmitBatch([]feedback.Feedback{rec("batched", "e", true, 5), {}})
	if err == nil || !strings.Contains(err.Error(), "record 1") {
		t.Fatalf("SubmitBatch err = %v", err)
	}
	if stored != 1 {
		t.Fatalf("SubmitBatch stored = %d", stored)
	}
}

// TestSubmitBatchItemsCapAndChunking pins the per-item contract of the
// group-commit write path: Items[i] answers Records[i] exactly, an over-cap
// frame is rejected whole, and the client splits any larger submission into
// max-sized frames transparently.
func TestSubmitBatchItemsCapAndChunking(t *testing.T) {
	srv := startServer(t)
	c := dial(t, srv)

	resp, err := c.SubmitBatchReport([]feedback.Feedback{
		rec("items", "a", true, 1),
		rec("items", "a", true, 1), // duplicate of the first
		{},                         // invalid
		rec("items", "b", false, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 4 {
		t.Fatalf("items = %d, want one per record", len(resp.Items))
	}
	if !resp.Items[0].Stored || resp.Items[0].Error != nil {
		t.Fatalf("item 0 = %+v, want stored", resp.Items[0])
	}
	if resp.Items[1].Stored || resp.Items[1].Error != nil {
		t.Fatalf("item 1 = %+v, want duplicate (not stored, no error)", resp.Items[1])
	}
	if resp.Items[2].Error == nil || resp.Items[2].Error.Code != wire.CodeInvalidFeedback {
		t.Fatalf("item 2 = %+v, want invalid_feedback error", resp.Items[2])
	}
	if !resp.Items[3].Stored {
		t.Fatalf("item 3 = %+v, want stored", resp.Items[3])
	}

	// A frame above the cap is rejected whole, before any record is applied.
	over := make([]feedback.Feedback, wire.MaxSubmitBatch+1)
	for i := range over {
		over[i] = rec("over", "c", true, int64(100+i))
	}
	conn, r := rawConn(t, srv, wire.VersionV2)
	codec := wire.CodecFor(wire.VersionV2)
	send(t, conn, codec, wire.TypeSubmitB, 1, wire.BatchRequest{Records: over})
	got, err := wire.ReadV2(r)
	if err == nil {
		err = codec.Commit(&got)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != wire.TypeError {
		t.Fatalf("over-cap frame got %s, want error", got.Type)
	}
	var werr wire.ErrorResponse
	if err := codec.DecodePayload(got, &werr); err != nil {
		t.Fatal(err)
	}
	if werr.Code != wire.CodeBadRequest {
		t.Fatalf("over-cap code = %s, want bad_request", werr.Code)
	}
	if srv.Store().ServerLen("over") != 0 {
		t.Fatal("over-cap frame partially applied")
	}

	// The client chunks a larger workload into cap-sized frames; indexes in
	// the merged report stay request-relative across chunk boundaries.
	many := make([]feedback.Feedback, 400)
	for i := range many {
		many[i] = rec("many", "c", true, int64(1000+i))
	}
	many[300] = feedback.Feedback{} // poison one record in the second chunk
	report, err := c.SubmitBatchReport(many)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Items) != len(many) {
		t.Fatalf("chunked items = %d, want %d", len(report.Items), len(many))
	}
	if report.Stored != len(many)-1 {
		t.Fatalf("chunked stored = %d, want %d", report.Stored, len(many)-1)
	}
	if len(report.Rejected) != 1 || report.Rejected[0].Index != 300 {
		t.Fatalf("chunked rejected = %+v, want index 300", report.Rejected)
	}
	if report.Items[300].Error == nil {
		t.Fatal("item 300 lost its error across the chunk boundary")
	}
	if srv.Store().ServerLen("many") != len(many)-1 {
		t.Fatalf("store has %d, want %d", srv.Store().ServerLen("many"), len(many)-1)
	}
}

// TestRequestDeadlineExceeded drives the acceptance criterion end to end: a
// TypeAssess request whose handler stalls past RequestTimeout must yield a
// deadline_exceeded error frame — not a hung connection — and the
// connection must stay usable afterwards. A handler the deadline abandoned
// that encodes its verdict anyway, against the connection's threshold
// bindings, is never written, so it binds nothing: the next verdict carries
// its own bindings and reads as the reference assessor's.
func TestRequestDeadlineExceeded(t *testing.T) { eachFraming(t, testRequestDeadlineExceeded) }

func testRequestDeadlineExceeded(t *testing.T, connect func(*Server) *repclient.Client) {
	srv, bt := blockingServer(t, Config{RequestTimeout: 80 * time.Millisecond})
	t.Cleanup(func() {
		close(bt.release) // let the abandoned handler goroutine finish
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	c := connect(srv)
	if _, err := c.Submit(rec("slow", "alice", true, 1)); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	_, err := c.Assess("slow", 0.9)
	var remote *wire.ErrorResponse
	if !errors.As(err, &remote) || remote.Code != wire.CodeDeadlineExceeded {
		t.Fatalf("err = %v, want %s error frame", err, wire.CodeDeadlineExceeded)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline reply took %s", elapsed)
	}
	// The connection survives a deadline error: the error frame carried the
	// request id, so the stream is still synchronised.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after deadline error: %v", err)
	}

	perType := srv.Metrics().Value("per_type").(service.Snapshot)
	assess := perType[string(wire.TypeAssess)]
	if assess.Requests == 0 || assess.Errors == 0 {
		t.Fatalf("assess metrics = %+v", assess)
	}
	if ping := perType[string(wire.TypePing)]; ping.Requests == 0 || ping.Errors != 0 {
		t.Fatalf("ping metrics = %+v", ping)
	}

	// The assess handlers give up once their context ends, so the late
	// verdict comes from a handler that answers through Server.Assess.
	late, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t)})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []feedback.EntityID{"late", "decoy"} {
		if _, err := late.Seed(honestHistory(id, 200)); err != nil {
			t.Fatal(err)
		}
	}
	release, encoded := make(chan struct{}), make(chan struct{})
	var first, released sync.Once
	var decoded feedback.EntityID // the server the abandoned handler read from its payload
	answer := typed(wire.TypeAssessR, func(_ context.Context, req wire.AssessRequest) (wire.AssessResponse, error) {
		decoded = req.Server
		return late.Assess(context.Background(), req)
	})
	served := late.pipeline
	late.pipeline = service.Chain(func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
		stall := false
		if env.Type == wire.TypeAssess {
			first.Do(func() { stall = true })
		}
		if !stall {
			return served(ctx, env)
		}
		<-release
		defer close(encoded)
		return answer(ctx, env)
	}, service.Deadline(80*time.Millisecond))
	late.Start()
	t.Cleanup(func() {
		released.Do(func() { close(release) })
		if err := late.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	lc := connect(late)
	if _, err := lc.Assess("late", referenceThreshold); !errors.As(err, &remote) || remote.Code != wire.CodeDeadlineExceeded {
		t.Fatalf("err = %v, want %s error frame", err, wire.CodeDeadlineExceeded)
	}
	// The abandoned handler has not read its payload yet. The frames the
	// connection reads meanwhile land in buffers of their own: had its
	// buffer gone back to the frame pool, the next frame would be read into
	// it, under the handler's feet.
	for i := 0; i < 4; i++ {
		if _, err := lc.Assess("decoy", referenceThreshold); err != nil {
			t.Fatal(err)
		}
	}
	released.Do(func() { close(release) })
	<-encoded
	if decoded != "late" {
		t.Fatalf("the abandoned handler read a request for %q, want %q", decoded, "late")
	}
	got, err := lc.Assess("late", referenceThreshold)
	if err != nil {
		t.Fatalf("the verdict after an abandoned one: %v", err)
	}
	if len(got.Assessment.Verdict.Suffixes) == 0 {
		t.Fatal("a verdict without suffixes binds nothing")
	}
	wantReference(t, late, late.Store(), "late", got)
}

// TestGracefulShutdownDrainsInFlight verifies the drain path: a request in
// flight when Close starts completes and its response is delivered, while
// the listener refuses new connections.
func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	eachFraming(t, testGracefulShutdownDrainsInFlight)
}

func testGracefulShutdownDrainsInFlight(t *testing.T, connect func(*Server) *repclient.Client) {
	srv, bt := blockingServer(t, Config{DrainTimeout: 5 * time.Second})
	c := connect(srv)
	if _, err := c.Submit(rec("srv", "alice", true, 1)); err != nil {
		t.Fatal(err)
	}

	type assessResult struct {
		resp wire.AssessResponse
		err  error
	}
	got := make(chan assessResult, 1)
	go func() {
		resp, err := c.Assess("srv", 0.9)
		got <- assessResult{resp, err}
	}()
	<-bt.started // the assess request is now in flight

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()

	// New connections are refused while draining (listener already closed).
	refusedBy := time.Now().Add(2 * time.Second)
	for {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			break
		}
		// A connection accepted in the closing race is cut without service.
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		if _, rerr := conn.Read(make([]byte, 1)); rerr != nil {
			_ = conn.Close()
			break
		}
		_ = conn.Close()
		if time.Now().After(refusedBy) {
			t.Fatal("server still accepting connections while draining")
		}
	}

	// Release the handler: the drained request must complete successfully.
	close(bt.release)
	select {
	case r := <-got:
		if r.err != nil {
			t.Fatalf("in-flight assess failed during drain: %v", r.err)
		}
		if !r.resp.Accept {
			t.Fatalf("assess resp = %+v", r.resp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight assess never completed")
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after drain")
	}
}

// TestCloseForceTerminatesStalledRequest: a handler that never returns (and
// a client that never hangs up) must not hold Close past the drain grace
// period — the base context is cancelled and the connection force-closed.
func TestCloseForceTerminatesStalledRequest(t *testing.T) {
	eachFraming(t, testCloseForceTerminatesStalledRequest)
}

func testCloseForceTerminatesStalledRequest(t *testing.T, connect func(*Server) *repclient.Client) {
	srv, bt := blockingServer(t, Config{DrainTimeout: 150 * time.Millisecond})
	t.Cleanup(func() { close(bt.release) })
	c := connect(srv)
	if _, err := c.Submit(rec("srv", "alice", true, 1)); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := c.Assess("srv", 0.9)
		got <- err
	}()
	<-bt.started

	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Close took %s with a stalled request", elapsed)
	}
	// The stalled client observes a dead connection, not a hang.
	select {
	case err := <-got:
		if err == nil {
			t.Fatal("stalled assess succeeded after force-close")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("client still blocked after force-close")
	}
}

// TestShutdownHonoursCallerContext: Shutdown with an already-expired
// context still waits for handlers but force-closes immediately.
func TestShutdownHonoursCallerContext(t *testing.T) { eachFraming(t, testShutdownHonoursCallerContext) }

func testShutdownHonoursCallerContext(t *testing.T, connect func(*Server) *repclient.Client) {
	srv, bt := blockingServer(t, Config{})
	t.Cleanup(func() { close(bt.release) })
	c := connect(srv)
	if _, err := c.Submit(rec("srv", "alice", true, 1)); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = c.Assess("srv", 0.9) }()
	<-bt.started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Shutdown took %s with a cancelled context", elapsed)
	}
}

// TestConcurrentShutdownHonoursOwnContext: while the first Shutdown owns
// the drain (held open by a stalled handler), a second Shutdown whose
// context has already expired must return ctx.Err() promptly instead of
// blocking unboundedly on the drain.
func TestConcurrentShutdownHonoursOwnContext(t *testing.T) {
	eachFraming(t, testConcurrentShutdownHonoursOwnContext)
}

func testConcurrentShutdownHonoursOwnContext(t *testing.T, connect func(*Server) *repclient.Client) {
	srv, bt := blockingServer(t, Config{DrainTimeout: 10 * time.Second})
	c := connect(srv)
	if _, err := c.Submit(rec("srv", "alice", true, 1)); err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = c.Assess("srv", 0.9) }()
	<-bt.started

	firstDone := make(chan error, 1)
	go func() { firstDone <- srv.Close() }() // owns the drain
	// Wait until the first call has marked the server closed.
	for {
		srv.mu.Lock()
		closed := srv.closed
		srv.mu.Unlock()
		if closed {
			break
		}
		time.Sleep(time.Millisecond)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := srv.Shutdown(expired); !errors.Is(err, context.Canceled) {
		t.Fatalf("concurrent shutdown err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("concurrent Shutdown blocked %s past its context", elapsed)
	}

	// Release the handler so the first call's drain completes; a later
	// Shutdown with a live context reports the first call's close error.
	close(bt.release)
	select {
	case err := <-firstDone:
		if err != nil {
			t.Fatalf("first close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("first Close never returned after release")
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("post-drain shutdown: %v", err)
	}
}

// TestCalibrationMetrics: /metricz counts the threshold-grid points the
// tester has calibrated and names the kernel that drew them; a tester
// without a calibrator reports none and the scalar loop.
func TestCalibrationMetrics(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	if got := srv.Metrics().Value("calibration.points"); got != 0 {
		t.Fatalf("calibration.points before any assess = %v", got)
	}
	for i := 0; i < 60; i++ {
		if _, err := srv.cfg.Store.Add(rec("srv", feedback.EntityID(rune('a'+i%4)), true, int64(i)+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Assess(context.Background(), wire.AssessRequest{Server: "srv", Threshold: 0.5}); err != nil {
		t.Fatal(err)
	}
	if got, _ := srv.Metrics().Value("calibration.points").(int); got == 0 {
		t.Fatal("calibration.points did not move after an assess")
	}
	if got, want := srv.Metrics().Value("calibration.kernel"), stats.CalibrationKernel(behavior.DefaultWindowSize); got != want {
		t.Fatalf("calibration.kernel = %v, want %v", got, want)
	}

	blocked, bt := blockingServer(t, Config{})
	close(bt.release)
	t.Cleanup(func() { _ = blocked.Close() })
	if got := blocked.Metrics().Value("calibration.points"); got != 0 {
		t.Fatalf("calibration.points without a calibrator = %v", got)
	}
	if got := blocked.Metrics().Value("calibration.kernel"); got != "scalar" {
		t.Fatalf("calibration.kernel without a calibrator = %v", got)
	}
}
