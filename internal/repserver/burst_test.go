package repserver

import (
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"honestplayer/internal/feedback"
	"honestplayer/internal/repclient"
	"honestplayer/internal/wire"
)

// liveHeap returns the heap in use once garbage, and the frame pool's
// buffers with it, are collected.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // a pooled buffer survives one collection in the victim cache
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestIdleConnectionHoldsNoBuffer: a connection that has carried a frame and
// gone idle holds no frame buffer at either end. 64 clients dial and ping;
// the heap a client and its server connection keep between them is bounded
// far below what one pipelining buffer of 256 KiB would cost.
func TestIdleConnectionHoldsNoBuffer(t *testing.T) {
	srv := startServer(t)
	if err := dial(t, srv).Ping(); err != nil { // package state that one connection sets up
		t.Fatal(err)
	}
	const conns = 64
	clients := make([]*repclient.Client, conns)
	before := liveHeap()
	for i := range clients {
		c, err := repclient.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	perPair := (liveHeap() - before) / conns
	for _, c := range clients {
		_ = c.Close()
	}
	t.Logf("%d B of heap per idle client and server connection", perPair)
	if perPair > 32<<10 {
		t.Fatalf("an idle client and server connection hold %d B of heap, want at most %d", perPair, 32<<10)
	}
}

// writeCounter is a listener whose connections record the size of every
// Write the server makes on them.
type writeCounter struct {
	net.Listener
	mu     sync.Mutex
	writes []int
}

func (l *writeCounter) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedConn{nc, l}, nil
}

type countedConn struct {
	net.Conn
	l *writeCounter
}

func (c countedConn) Write(p []byte) (int, error) {
	c.l.mu.Lock()
	c.l.writes = append(c.l.writes, len(p))
	c.l.mu.Unlock()
	return c.Conn.Write(p)
}

// TestPipelinedBurstPastTheBound: 64 assess.batch frames over 1,000-record
// histories, written in one piece before any response is read, so the node
// finds request after request already buffered and answers into one burst
// until that passes wire.MaxBurst. The connection is bridged, so each
// response is ~100 KB of JSON verdicts and the 64 pass the bound several
// times. Every verdict is the reference assessor's, in request order, and
// the responses leave in more than one write, none past the bound by more
// than the frame that passed it.
func TestPipelinedBurstPastTheBound(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t)})
	if err != nil {
		t.Fatal(err)
	}
	counter := &writeCounter{Listener: srv.listener}
	srv.listener = counter
	srv.Start()
	t.Cleanup(func() { _ = srv.Close() })
	ids := make([]feedback.EntityID, 8)
	want := make([]wire.AssessResponse, len(ids))
	for i := range ids {
		ids[i] = feedback.EntityID(fmt.Sprintf("srv-%03d", i))
		if _, err := srv.Seed(honestHistory(ids[i], 1000)); err != nil {
			t.Fatal(err)
		}
		snap, _ := srv.Store().Snapshot(ids[i])
		accept, a, err := srv.cfg.Assessor.Accept(snap, referenceThreshold)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = wire.AssessResponse{Assessment: a, Accept: accept}
	}

	conn, r := rawConn(t, srv, wire.VersionV2+1) // any revision but the build's: the JSON bridge
	codec := wire.BridgeCodec
	const frames = 64
	var requests []byte
	for id := uint64(1); id <= frames; id++ {
		env, err := codec.Encode(wire.TypeAssessB, id, wire.AssessBatchRequest{Servers: ids, Threshold: referenceThreshold})
		if err == nil {
			requests, err = wire.AppendV2(requests, env)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	written := make(chan error, 1)
	go func() { _, err := conn.Write(requests); written <- err }()

	total := 0
	for id := uint64(1); id <= frames; id++ {
		env, err := wire.ReadV2(r)
		if err != nil {
			t.Fatal(err)
		}
		if env.Type != wire.TypeAssessBR || env.ID != id {
			t.Fatalf("response %d: type %s id %d", id, env.Type, env.ID)
		}
		total += len(env.Payload)
		var resp wire.AssessBatchResponse
		if err := codec.DecodePayload(env, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Items) != len(ids) {
			t.Fatalf("response %d: %d items, want %d", id, len(resp.Items), len(ids))
		}
		for i, item := range resp.Items {
			if item.Server != ids[i] || item.Error != nil || !reflect.DeepEqual(item.AssessResponse, want[i]) {
				t.Fatalf("response %d item %d: %+v, want %q answered\n%+v", id, i, item, ids[i], want[i])
			}
		}
	}
	if err := <-written; err != nil {
		t.Fatal(err)
	}
	counter.mu.Lock()
	writes := counter.writes
	counter.mu.Unlock()
	largest := 0
	for _, n := range writes {
		largest = max(largest, n)
	}
	t.Logf("%d B of responses in %d writes, the largest %d B", total, len(writes), largest)
	if total <= wire.MaxBurst {
		t.Fatalf("the responses are %d B, not past the %d B bound", total, wire.MaxBurst)
	}
	if len(writes) < 3 { // the ack, then the responses in two pieces or more
		t.Fatalf("%d writes: %v", len(writes), writes)
	}
	if frame := total / frames; largest > wire.MaxBurst+frame {
		t.Fatalf("a write of %d B, past the %d B bound by more than a frame", largest, wire.MaxBurst)
	}
}
