package compat

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/repclient"
	"honestplayer/internal/repserver"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
	"honestplayer/internal/wire"
)

// serverMode is one server wire configuration of the matrix.
type serverMode struct {
	name      string
	disableV2 bool
	// previous is a node one codec revision behind (wire.VersionV2 - 1: rows
	// where this build sends a record batch): it acks its own revision on
	// the binary framing and serves JSON.
	previous bool
}

// clientMode is one client protocol selection of the matrix.
type clientMode struct {
	name  string
	proto repclient.Proto
}

var serverModes = []serverMode{
	{name: "v2", disableV2: false},
	{name: "json", disableV2: true},
	{name: "prev", previous: true},
}

var clientModes = []clientMode{
	{name: "json", proto: repclient.ProtoJSON},
	{name: "auto", proto: repclient.ProtoAuto},
	{name: "v2", proto: repclient.ProtoV2},
}

// wantProtocol is the matrix's expectation table: the protocol each cell
// must negotiate, or "" when the dial itself must fail (a v2-required
// client against a JSON-only server has nothing to fall back to).
func wantProtocol(c clientMode, s serverMode) string {
	switch {
	case c.proto == repclient.ProtoJSON:
		return "json"
	case (s.disableV2 || s.previous) && c.proto == repclient.ProtoV2:
		return ""
	case s.disableV2 || s.previous:
		return "json"
	default:
		return "v2"
	}
}

// TestCompatMatrix runs every client×server cell. CI shards the matrix by
// setting COMPAT_CLIENT and/or COMPAT_SERVER to a mode name; unset means
// every mode runs.
func TestCompatMatrix(t *testing.T) {
	cFilter := os.Getenv("COMPAT_CLIENT")
	sFilter := os.Getenv("COMPAT_SERVER")
	ran := false
	for _, sm := range serverModes {
		for _, cm := range clientModes {
			if (cFilter != "" && cFilter != cm.name) || (sFilter != "" && sFilter != sm.name) {
				continue
			}
			ran = true
			sm, cm := sm, cm
			t.Run(fmt.Sprintf("%s_client_vs_%s_server", cm.name, sm.name), func(t *testing.T) {
				runCell(t, cm, sm)
			})
		}
	}
	if !ran {
		t.Fatalf("COMPAT_CLIENT=%q COMPAT_SERVER=%q selects no cell", cFilter, sFilter)
	}
}

// history builds a deterministic per-server workload: 19 good transactions
// out of every 20, spread over 25 clients.
func history(server feedback.EntityID, n int) []feedback.Feedback {
	recs := make([]feedback.Feedback, n)
	for i := range recs {
		r := feedback.Positive
		if i%20 == 19 {
			r = feedback.Negative
		}
		recs[i] = feedback.Feedback{
			Time:   time.Unix(int64(i), 0).UTC(),
			Server: server,
			Client: feedback.EntityID(fmt.Sprintf("c%d", i%25)),
			Rating: r,
		}
	}
	return recs
}

// startServer builds one full serving stack — multi-scheme behaviour tester,
// average trust — in the given wire configuration, seeded with two servers'
// histories.
func startServer(t *testing.T, sm serverMode) (*repserver.Server, []feedback.EntityID) {
	t.Helper()
	tester, err := behavior.NewMulti(behavior.Config{
		Calibrator: stats.NewCalibrator(stats.CalibrationConfig{Seed: 1, Replicates: 200}, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	assessor, err := core.NewTwoPhase(tester, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := repserver.New("127.0.0.1:0", repserver.Config{
		Assessor:  assessor,
		DisableV2: sm.disableV2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	servers := []feedback.EntityID{"compat-a", "compat-b"}
	for _, sv := range servers {
		if _, err := srv.Seed(history(sv, 100)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	return srv, servers
}

// runCell drives the full request surface through one client×server pairing
// and checks every verdict against the server's in-process reference answer,
// so a codec that decodes to the wrong value — not just one that errors —
// fails the cell.
func runCell(t *testing.T, cm clientMode, sm serverMode) {
	if sm.previous {
		runPreviousCell(t, cm)
		return
	}
	srv, servers := startServer(t, sm)
	want := wantProtocol(cm, sm)

	client, err := repclient.Dial(srv.Addr(),
		repclient.WithProtocol(cm.proto), repclient.WithTimeout(5*time.Second))
	if want == "" {
		if err == nil {
			_ = client.Close()
			t.Fatalf("dial succeeded; want failure (%s client cannot speak to %s server)", cm.name, sm.name)
		}
		if !errors.Is(err, wire.ErrNotV2) {
			t.Fatalf("dial err = %v, want wire.ErrNotV2", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() { _ = client.Close() }()
	if got := client.Protocol(); got != want {
		t.Fatalf("negotiated %q, want %q", got, want)
	}

	if err := client.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// Submit: a fresh record stores, resubmitting it deduplicates, and an
	// invalid record is rejected by the server with the typed protocol
	// error — on every framing (the v2 codec must carry even payloads its
	// binary form refuses, so the server stays the one rejecting them).
	fresh := feedback.Feedback{
		Time:   time.Unix(10_000, 0).UTC(),
		Server: servers[0],
		Client: "compat-client",
		Rating: feedback.Negative,
	}
	if stored, err := client.Submit(fresh); err != nil || !stored {
		t.Fatalf("submit fresh: stored=%v err=%v", stored, err)
	}
	if stored, err := client.Submit(fresh); err != nil || stored {
		t.Fatalf("submit duplicate: stored=%v err=%v, want false, nil", stored, err)
	}
	var protoErr *wire.ErrorResponse
	if _, err := client.Submit(feedback.Feedback{Server: servers[0], Client: "x"}); !errors.As(err, &protoErr) || protoErr.Code != wire.CodeInvalidFeedback {
		t.Fatalf("submit invalid: err = %v, want code %s", err, wire.CodeInvalidFeedback)
	}

	// Batch submit: one new record, one duplicate of the fresh record.
	batch := []feedback.Feedback{
		{Time: time.Unix(10_001, 0).UTC(), Server: servers[1], Client: "compat-client", Rating: feedback.Positive},
		fresh,
	}
	if stored, dups, err := client.SubmitBatch(batch); err != nil || stored != 1 || dups != 1 {
		t.Fatalf("submit batch: stored=%d dups=%d err=%v, want 1, 1, nil", stored, dups, err)
	}

	// History: the seeded 100 records plus the one submitted above.
	if recs, total, err := client.History(servers[0], 5); err != nil || total != 101 || len(recs) != 5 {
		t.Fatalf("history: len=%d total=%d err=%v, want 5, 101, nil", len(recs), total, err)
	}

	// Assess: every verdict must equal the server's in-process answer —
	// the wire (either framing) must neither perturb nor lose fidelity.
	ctx := context.Background()
	const threshold = 0.9
	for _, sv := range servers {
		ref, err := srv.Assess(ctx, wire.AssessRequest{Server: sv, Threshold: threshold})
		if err != nil {
			t.Fatalf("reference assess %s: %v", sv, err)
		}
		got, err := client.Assess(sv, threshold)
		if err != nil {
			t.Fatalf("assess %s: %v", sv, err)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("assess %s over %s wire:\n got %+v\nwant %+v", sv, client.Protocol(), got, ref)
		}
	}
	items, err := client.AssessBatch(servers, threshold)
	if err != nil {
		t.Fatalf("assess batch: %v", err)
	}
	if len(items) != len(servers) {
		t.Fatalf("assess batch: %d items, want %d", len(items), len(servers))
	}
	for i, it := range items {
		ref, err := srv.Assess(ctx, wire.AssessRequest{Server: servers[i], Threshold: threshold})
		if err != nil {
			t.Fatalf("reference assess %s: %v", servers[i], err)
		}
		if it.Error != nil {
			t.Fatalf("assess batch %s: %+v", servers[i], it.Error)
		}
		if !reflect.DeepEqual(it.AssessResponse, ref) {
			t.Fatalf("assess batch %s over %s wire:\n got %+v\nwant %+v", servers[i], client.Protocol(), it.AssessResponse, ref)
		}
	}

	// The server must agree about which framing the connection negotiated.
	st := srv.Stats()
	if want == "v2" && st.V2Connections == 0 {
		t.Fatal("server counted no v2 connections for a v2 client")
	}
	if want == "json" && st.V2Connections != 0 {
		t.Fatalf("server counted %d v2 connections for a JSON client", st.V2Connections)
	}
}

// previousVersionServer is a node built before the last codec revision, as
// far as a handshake can tell: it acks a hello with the version before
// wire.VersionV2 — the old ReadHello accepted any offer at or above its own —
// and serves JSON connections.
func previousVersionServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = conn.Close() }()
				r := bufio.NewReader(conn)
				if first, err := r.Peek(1); err != nil {
					return
				} else if first[0] == wire.HelloMagic {
					if _, err := r.Discard(5); err == nil {
						_, _ = conn.Write([]byte{wire.HelloMagic, 'W', '2', wire.VersionV2 - 1})
						_, _ = r.ReadByte() // a client that goes on would get rows; wait for it to hang up
					}
					return
				}
				for {
					env, err := wire.Read(r)
					if err != nil {
						return
					}
					pong, _ := wire.Encode(wire.TypePong, env.ID, nil)
					if wire.Write(conn, pong) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// runPreviousCell is a matrix cell against a node one revision behind: the
// two meet on JSON or not at all — a strict v2 client fails the dial with a
// version error, before either side decodes a frame in a layout it has no
// reader for.
func runPreviousCell(t *testing.T, cm clientMode) {
	c, err := repclient.Dial(previousVersionServer(t), repclient.WithProtocol(cm.proto), repclient.WithTimeout(3*time.Second))
	if wantProtocol(cm, serverMode{previous: true}) == "" {
		if err == nil {
			_ = c.Close()
			t.Fatal("dial succeeded; want a version error")
		}
		if !errors.Is(err, wire.ErrBadVersion) || errors.Is(err, wire.ErrBadMessage) {
			t.Fatalf("dial err = %v, want wire.ErrBadVersion", err)
		}
		return
	}
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer func() { _ = c.Close() }()
	if got := c.Protocol(); got != "json" {
		t.Fatalf("negotiated %q, want json", got)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping over JSON: %v", err)
	}
}

// TestPreviousVersionPeers: every wire.VersionV2 revision changed what some
// payload looks like on a binary frame and kept no reader for the old layout
// — 3 → 4 the records of submit.batch, fwd.submit.batch and history.resp — so
// peers one revision apart must part at the handshake, in both directions,
// and never by way of a decode error.
func TestPreviousVersionPeers(t *testing.T) {
	t.Run("old_client_vs_this_server", func(t *testing.T) {
		srv, _ := startServer(t, serverMode{name: "v2"})
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		_ = conn.SetDeadline(time.Now().Add(3 * time.Second))
		if _, err := conn.Write([]byte{wire.HelloMagic, 'W', '2', wire.VersionV2 - 1, '\n'}); err != nil {
			t.Fatal(err)
		}
		// Refused like any too-old hello: the JSON id-0 error frame, which an
		// old client's ReadHelloAck reports as ErrNotV2 (auto falls back to
		// JSON on it, v2 fails the dial), and then the connection closes.
		r := bufio.NewReader(conn)
		if err := wire.ReadHelloAck(r); !errors.Is(err, wire.ErrNotV2) {
			t.Fatalf("ack to an old hello: %v, want wire.ErrNotV2", err)
		}
		if _, err := r.ReadBytes('\n'); err != nil {
			t.Fatalf("rest of the error frame: %v", err)
		}
		if _, err := r.ReadByte(); err == nil {
			t.Fatal("connection still open after the refused hello")
		}
		if got := srv.Stats().V2Connections; got != 0 {
			t.Fatalf("server counts %d v2 connections", got)
		}
	})
	t.Run("auto_client_vs_old_server", func(t *testing.T) { runPreviousCell(t, clientMode{"auto", repclient.ProtoAuto}) })
	t.Run("v2_client_vs_old_server", func(t *testing.T) { runPreviousCell(t, clientMode{"v2", repclient.ProtoV2}) })
}
