package compat

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/cluster"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/gossip"
	"honestplayer/internal/ledger"
	"honestplayer/internal/repclient"
	"honestplayer/internal/repserver"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
	"honestplayer/internal/wire"
)

const threshold = 0.9

// direction is the skew a relay shows the two ends of each connection.
type direction struct {
	name  string
	offer byte // the revision the server is told the client offers
	ack   byte // the revision the client is told the server acks
}

var directions = []direction{
	{"older_client", wire.VersionV2 - 1, wire.VersionV2 + 1},
	{"newer_client", wire.VersionV2 + 1, wire.VersionV2 - 1},
}

// skewRelay is a TCP relay in front of one node: it rewrites the handshake
// of every connection through it per its direction, then copies frames both
// ways and records them.
type skewRelay struct {
	addr string

	mu          sync.Mutex
	binary      int          // frames with a binary payload
	codes       map[byte]int // frames per type code
	inflight    map[inflight]bool
	maxInflight int
}

// inflight names one request: its client connection and its id.
type inflight struct {
	conn net.Conn
	id   uint64
}

func newSkewRelay(t *testing.T, target string, dir direction) *skewRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	r := &skewRelay{addr: ln.Addr().String(), codes: map[byte]int{}, inflight: map[inflight]bool{}}
	go func() {
		for {
			client, err := ln.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", target)
			if err != nil {
				_ = client.Close()
				continue
			}
			go r.pipe(server, client, client, 5, dir.offer, true)
			go r.pipe(client, server, client, 4, dir.ack, false)
		}
	}()
	return r
}

// pipe copies src to dst: the handshake message of n bytes with its revision
// byte replaced by rev, then frame by frame, noting each before it is passed
// on. It closes both ends when src ends.
func (r *skewRelay) pipe(dst, src, client net.Conn, n int, rev byte, requests bool) {
	defer func() { _ = dst.Close(); _ = src.Close() }()
	head := make([]byte, n)
	if _, err := io.ReadFull(src, head); err != nil {
		return
	}
	head[3] = rev
	if _, err := dst.Write(head); err != nil {
		return
	}
	for {
		frame := make([]byte, 14)
		if _, err := io.ReadFull(src, frame); err != nil {
			return
		}
		body := int(binary.BigEndian.Uint32(frame))
		if body < 10 {
			return
		}
		frame = append(frame, make([]byte, body-10)...)
		if _, err := io.ReadFull(src, frame[14:]); err != nil {
			return
		}
		r.note(client, frame, requests)
		if _, err := dst.Write(frame); err != nil {
			return
		}
	}
}

func (r *skewRelay) note(client net.Conn, frame []byte, request bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	code, flags, id := frame[4], frame[5], binary.BigEndian.Uint64(frame[6:14])
	r.codes[code]++
	if len(frame) > 14 && flags&1 == 0 {
		r.binary++
	}
	if request {
		r.inflight[inflight{client, id}] = true
		r.maxInflight = max(r.maxInflight, len(r.inflight))
	} else {
		delete(r.inflight, inflight{client, id})
	}
}

// stats reports how many binary payloads crossed the relay and how many
// frames of type code code did.
func (r *skewRelay) stats(code byte) (binary, frames int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.binary, r.codes[code]
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

// newServer builds one full serving stack — multi-scheme behaviour tester,
// average trust — on an ephemeral port, not yet serving.
func newServer(t *testing.T) *repserver.Server {
	t.Helper()
	return newServerWith(t, repserver.Config{})
}

// newServerWith is newServer over cfg's store and recorder.
func newServerWith(t *testing.T, cfg repserver.Config) *repserver.Server {
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
	cfg.Assessor = assessor
	srv, err := repserver.New("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

// deploy starts a fresh single node, or a cluster of nodes with replica
// factor 2, and returns the address of its door (node 1) with the door
// itself. With a skew, every member is listed under a relay so that the
// door's fwd.* hops cross the skew, and the door is returned behind one
// more: the last of the relays.
func deploy(t *testing.T, nodes int, skew *direction) (string, *repserver.Server, []*skewRelay) {
	t.Helper()
	var relays []*skewRelay
	srvs := make([]*repserver.Server, nodes)
	members := make([]cluster.Node, nodes)
	for i := range srvs {
		srvs[i] = newServer(t)
		members[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), Addr: srvs[i].Addr()}
		if skew != nil && nodes > 1 {
			r := newSkewRelay(t, srvs[i].Addr(), *skew)
			members[i].Addr = r.addr
			relays = append(relays, r)
		}
	}
	for i, srv := range srvs {
		if nodes > 1 {
			cl, err := cluster.New(cluster.Config{
				Self: members[i].ID, Nodes: members, Replicas: 2, DialTimeout: 3 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = cl.Close() })
			srv.SetCluster(cl)
		}
		srv.Start()
	}
	addr := srvs[0].Addr()
	if skew != nil {
		r := newSkewRelay(t, addr, *skew)
		addr = r.addr
		relays = append(relays, r)
	}
	return addr, srvs[0], relays
}

func dial(t *testing.T, addr string) *repclient.Client {
	t.Helper()
	c, err := repclient.Dial(addr, repclient.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// roles picks the servers the script uses: two the door does not hold, so
// their requests cross to other nodes, then one it does, for history.
func roles(door *repserver.Server) []feedback.EntityID {
	var remote, local []feedback.EntityID
	for i := 0; len(remote) < 2 || len(local) < 1; i++ {
		id := feedback.EntityID(fmt.Sprintf("compat-%d", i))
		cl := door.Cluster()
		if cl == nil || !cl.Owns(id) {
			remote = append(remote, id)
		}
		if cl == nil || cl.Owns(id) {
			local = append(local, id)
		}
	}
	return []feedback.EntityID{remote[0], remote[1], local[0]}
}

// answers is everything one run of the script gets back.
type answers struct {
	Seed, Submit wire.BatchResponse
	History      []feedback.Feedback
	Total        int
	Assess       []wire.AssessResponse
	Ghost        error
	Batch        []wire.AssessBatchItem
}

// play runs the script through c: seed the three servers, submit a fresh, a
// duplicate and an invalid record in one batch, read a history, assess each
// server and an unknown one singly, then all of them in one batch.
func play(t *testing.T, c *repclient.Client, ids []feedback.EntityID) answers {
	t.Helper()
	var a answers
	var seed []feedback.Feedback
	for _, id := range ids {
		seed = append(seed, history(id, 100)...)
	}
	var err error
	if a.Seed, err = c.SubmitBatchReport(seed); err != nil {
		t.Fatalf("seed: %v", err)
	}
	fresh := feedback.Feedback{Time: time.Unix(10_000, 0).UTC(), Server: ids[0], Client: "compat-client", Rating: feedback.Negative}
	if a.Submit, err = c.SubmitBatchReport([]feedback.Feedback{fresh, seed[0], {Server: ids[1], Client: "x"}}); err != nil {
		t.Fatalf("submit batch: %v", err)
	}
	if a.History, a.Total, err = c.History(ids[2], 5); err != nil {
		t.Fatalf("history: %v", err)
	}
	for _, id := range ids {
		resp, err := c.Assess(id, threshold)
		if err != nil {
			t.Fatalf("assess %s: %v", id, err)
		}
		a.Assess = append(a.Assess, resp)
	}
	_, a.Ghost = c.Assess("ghost", threshold)
	if a.Batch, err = c.AssessBatch(append(append([]feedback.EntityID(nil), ids...), "ghost"), threshold); err != nil {
		t.Fatalf("assess batch: %v", err)
	}
	return a
}

// pipelined fires bursts of concurrent assesses through c until the relay in
// front of the door has seen more than one request in flight at once.
func pipelined(t *testing.T, c *repclient.Client, door *skewRelay, id feedback.EntityID) {
	t.Helper()
	for round := 0; round < 50; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.Assess(id, threshold); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		door.mu.Lock()
		most := door.maxInflight
		door.mu.Unlock()
		if most > 1 {
			return
		}
	}
	t.Fatal("requests never pipelined across the skew: at most one was in flight")
}

// TestCompatMatrix: neighbours a codec revision apart, in either direction,
// at a single node and at the door of a 3-node cluster. Each cell starts two
// fresh deployments, plays one script through a direct binary connection to
// the first and across the skew to the second, and requires the same answers
// — submit.batch, history, assess, assess.batch, the errors among them —
// with every payload across the skew JSON, requests pipelined, and, in the
// cluster, the door's fwd.* hops across the skew too.
func TestCompatMatrix(t *testing.T) {
	for _, deployment := range []struct {
		name  string
		nodes int
	}{{"single_node", 1}, {"cluster3_door", 3}} {
		for _, dir := range directions {
			t.Run(deployment.name+"/"+dir.name, func(t *testing.T) {
				directAddr, door, _ := deploy(t, deployment.nodes, nil)
				ids := roles(door)
				want := play(t, dial(t, directAddr), ids)
				// Multi verdicts of several suffixes: chains on the direct
				// connection (ADR 0006's amendment), JSON across the skew.
				for _, a := range want.Assess {
					if len(a.Assessment.Verdict.Suffixes) < 2 {
						t.Fatalf("%s: %d suffixes, no chain to carry", a.Assessment.Server, len(a.Assessment.Verdict.Suffixes))
					}
				}

				skewAddr, _, relays := deploy(t, deployment.nodes, &dir)
				c := dial(t, skewAddr)
				if got := play(t, c, ids); !reflect.DeepEqual(got, want) {
					t.Fatalf("answers across the skew differ from a binary connection's:\n got %+v\nwant %+v", got, want)
				}
				pipelined(t, c, relays[len(relays)-1], ids[0])
				for _, r := range relays {
					if binary, _ := r.stats(0); binary != 0 {
						t.Errorf("%d binary payloads crossed the skew at %s", binary, r.addr)
					}
				}
				if deployment.nodes == 1 {
					return
				}
				// fwd.submit.batch and fwd.assess.batch (type codes 22, 24) and
				// their answers crossed the members' relays.
				for _, code := range []byte{22, 23, 24, 25} {
					frames := 0
					for _, r := range relays[:len(relays)-1] {
						_, n := r.stats(code)
						frames += n
					}
					if frames == 0 {
						t.Errorf("no frame of type code %d crossed the skew between members", code)
					}
				}
			})
		}
	}
}

// previousVersionServer is a node one codec revision behind that predates
// the bridge: it acks its own revision, answers a ping, and answers any
// other request in its own binary layout — here, whatever bytes it likes.
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
				if _, err := wire.ReadHello(r); err != nil {
					return
				}
				if _, err := conn.Write([]byte{wire.HelloMagic, 'W', '2', wire.VersionV2 - 1}); err != nil {
					return
				}
				for {
					env, err := wire.ReadV2(r)
					if err != nil {
						return
					}
					resp := wire.Envelope{Type: wire.TypePong, ID: env.ID}
					if env.Type != wire.TypePing {
						resp = wire.Envelope{Type: wire.TypeHistoryR, ID: env.ID, Payload: []byte{0xFF, 0x01}, Binary: true}
					}
					if wire.WriteV2(conn, resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestPreviousVersionPeers: this build against a peer one codec revision
// behind that has no bridge — a build from before ADR 0009, which answers in
// its own binary layout. The two client subtests keep the names of the
// -proto modes whose outcomes they were: one client now meets such a node as
// long as no binary payload crosses ("auto"), and refuses the first one that
// does with ErrBadVersion — connection-fatal, and never a decode error
// ("v2"). The other way round, this server acks its own revision to the old
// client's hello and refuses the old client's binary payload the same way.
func TestPreviousVersionPeers(t *testing.T) {
	t.Run("old_client_vs_this_server", func(t *testing.T) {
		srv := newServer(t)
		srv.Start()
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		_ = conn.SetDeadline(time.Now().Add(3 * time.Second))
		if _, err := conn.Write([]byte{wire.HelloMagic, 'W', '2', wire.VersionV2 - 1, '\n'}); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		if rev, err := wire.ReadAck(r); err != nil || rev != wire.VersionV2 {
			t.Fatalf("ack to an old hello: revision %d, %v; want this server's %d", rev, err, wire.VersionV2)
		}
		env, err := wire.V2Codec.Encode(wire.TypeAssess, 1, wire.AssessRequest{Server: "s", Threshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteV2(conn, env); err != nil {
			t.Fatal(err)
		}
		refusal, err := wire.ReadV2(r)
		if err != nil || refusal.Type != wire.TypeError || refusal.ID != wire.UnattributableID || refusal.Binary {
			t.Fatalf("old client's binary payload answered %+v, %v; want a JSON id-0 error frame", refusal, err)
		}
		if _, err := wire.ReadV2(r); err == nil {
			t.Fatal("connection still open after the refusal")
		}
	})
	t.Run("auto_client_vs_old_server", func(t *testing.T) {
		c := dial(t, previousVersionServer(t))
		if err := c.Ping(); err != nil {
			t.Fatalf("ping across the skew: %v", err)
		}
	})
	t.Run("v2_client_vs_old_server", func(t *testing.T) {
		c := dial(t, previousVersionServer(t))
		_, _, err := c.History("s", 1)
		if !errors.Is(err, wire.ErrBadVersion) || !errors.Is(err, repclient.ErrConnBroken) || errors.Is(err, wire.ErrBadMessage) {
			t.Fatalf("binary answer across the skew: err = %v, want ErrBadVersion, connection-fatal", err)
		}
	})
}

// revision10Node is a node one codec revision behind, revision 10, with the
// bridge: it acks its own revision and answers every request on JSON, as a
// revision-10 node answers this build. Its answers are srv's, with the
// cached and incremental markers a revision-10 node set on an assessment
// spliced into every assess.batch item.
func revision10Node(t *testing.T, srv *repserver.Server) string {
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
				if _, err := wire.ReadHello(r); err != nil {
					return
				}
				if _, err := conn.Write([]byte{wire.HelloMagic, 'W', '2', 10}); err != nil {
					return
				}
				for {
					env, err := wire.ReadV2(r)
					if err != nil {
						return
					}
					var resp wire.Envelope
					if env.Type == wire.TypeAssessB {
						resp = markedAnswer(t, srv, env)
					} else {
						resp = wire.Envelope{Type: wire.TypePong, ID: env.ID}
					}
					if wire.WriteV2(conn, resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// markedAnswer is srv's assess.batch answer to env as revision-10 JSON:
// every served item carries "cached": true and "incremental": true.
func markedAnswer(t *testing.T, srv *repserver.Server, env wire.Envelope) wire.Envelope {
	var req wire.AssessBatchRequest
	if err := wire.DecodePayload(env, &req); err != nil {
		t.Error(err)
	}
	answer, err := srv.AssessBatch(context.Background(), req)
	if err != nil {
		t.Error(err)
	}
	var doc struct {
		Items []map[string]any `json:"items"`
	}
	raw, _ := json.Marshal(answer)
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Error(err)
	}
	for _, item := range doc.Items {
		if item["error"] == nil {
			item["cached"], item["incremental"] = true, true
		}
	}
	payload, _ := json.Marshal(doc)
	return wire.Envelope{Type: wire.TypeAssessBR, ID: env.ID, Payload: payload}
}

// TestRevision11EngineMarkers is the skew cell of revision 11, which drops
// an assess response's cached and incremental markers: a revision-10 node's
// answers carrying them decode, across the bridge, to the answers of this
// build's own node, and this build's answers to a revision-10 client carry
// neither key, which a revision-10 decoder reads as false.
func TestRevision11EngineMarkers(t *testing.T) {
	srv := newServer(t)
	srv.Start()
	ids := []feedback.EntityID{"marked-a", "marked-b", "ghost"}
	for _, id := range ids[:2] {
		if _, err := srv.Seed(history(id, 120)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := dial(t, srv.Addr()).AssessBatch(ids, threshold)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("revision10_node_vs_this_client", func(t *testing.T) {
		got, err := dial(t, revision10Node(t, srv)).AssessBatch(ids, threshold)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a revision-10 answer decodes to\n%+v\nwant\n%+v", got, want)
		}
	})
	t.Run("revision10_client_vs_this_server", func(t *testing.T) {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		_ = conn.SetDeadline(time.Now().Add(3 * time.Second))
		if _, err := conn.Write([]byte{wire.HelloMagic, 'W', '2', 10, '\n'}); err != nil {
			t.Fatal(err)
		}
		r := bufio.NewReader(conn)
		if _, err := wire.ReadAck(r); err != nil {
			t.Fatal(err)
		}
		env, err := wire.BridgeCodec.Encode(wire.TypeAssessB, 1, wire.AssessBatchRequest{Servers: ids, Threshold: threshold})
		if err != nil {
			t.Fatal(err)
		}
		if err := wire.WriteV2(conn, env); err != nil {
			t.Fatal(err)
		}
		resp, err := wire.ReadV2(r)
		if err != nil || resp.Type != wire.TypeAssessBR || resp.Binary {
			t.Fatalf("answer %+v, %v; want a JSON assess.batch.resp", resp, err)
		}
		for _, key := range []string{`"cached"`, `"incremental"`} {
			if strings.Contains(string(resp.Payload), key) {
				t.Fatalf("the answer to a revision-10 client names %s: %s", key, resp.Payload)
			}
		}
		var got wire.AssessBatchResponse
		if err := wire.DecodePayload(resp, &got); err != nil || !reflect.DeepEqual(got.Items, want) {
			t.Fatalf("decoded %+v, %v; want %+v", got.Items, err, want)
		}
	})
}

// TestRevision12KeyedThresholds is the skew cell of revision 12, which
// writes no threshold for a verdict row whose calibration grid point the
// frame has already bound: across the bridge both ends speak JSON, so a
// revision-11 client of this node and this client of a revision-11 node
// read every verdict of a wide batch — tables that share grid points, of
// several lengths — as a revision-12 connection reads it.
func TestRevision12KeyedThresholds(t *testing.T) {
	srv := newServer(t)
	srv.Start()
	var ids []feedback.EntityID
	for i := range 24 {
		id := feedback.EntityID(fmt.Sprintf("keyed-%d", i))
		if _, err := srv.Seed(history(id, 100+10*i)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	want, err := dial(t, srv.Addr()).AssessBatch(ids, threshold)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range want {
		if item.Error != nil || len(item.Assessment.Verdict.Suffixes) < 2 {
			t.Fatalf("%s: %+v, want a verdict table of several rows", item.Server, item)
		}
	}
	relay := newSkewRelay(t, srv.Addr(), direction{"revision11", 11, 11})
	got, err := dial(t, relay.addr).AssessBatch(ids, threshold)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("across the revision-11 bridge:\n got %+v\nwant %+v", got, want)
	}
	if binary, frames := relay.stats(11); binary != 0 || frames != 1 {
		t.Errorf("%d binary payloads, %d assess.batch frames crossed the bridge; want 0 and 1", binary, frames)
	}
}

// TestRevision13ConnectionBindings is the skew cell of revision 13, which
// binds a calibration grid point for as long as the connection lives: a
// binary connection keeps its threshold bindings from frame to frame, and a
// bridged one keeps none, its payloads JSON. A revision-12 client of this
// node, and this client of a revision-12 node, read a 24-server batch and
// then a run of single assess frames on one connection exactly as a
// revision-13 connection reads them, and no binary payload crosses.
func TestRevision13ConnectionBindings(t *testing.T) {
	srv := newServer(t)
	srv.Start()
	var ids []feedback.EntityID
	for i := range 24 {
		id := feedback.EntityID(fmt.Sprintf("bound-%d", i))
		if _, err := srv.Seed(history(id, 100+10*i)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	read := func(c *repclient.Client) ([]wire.AssessBatchItem, []wire.AssessResponse) {
		batch, err := c.AssessBatch(ids, threshold)
		if err != nil {
			t.Fatal(err)
		}
		var singles []wire.AssessResponse
		for _, id := range ids {
			resp, err := c.Assess(id, threshold)
			if err != nil {
				t.Fatal(err)
			}
			singles = append(singles, resp)
		}
		return batch, singles
	}
	wantBatch, wantSingles := read(dial(t, srv.Addr()))
	for _, item := range wantBatch {
		if item.Error != nil || len(item.Assessment.Verdict.Suffixes) < 2 {
			t.Fatalf("%s: %+v, want a verdict table of several rows", item.Server, item)
		}
	}
	// One end of revision 12, the other as far from it as the directions
	// put this build's neighbours.
	for _, dir := range []direction{{"older_client", 12, wire.VersionV2 + 1}, {"newer_client", wire.VersionV2 + 1, 12}} {
		relay := newSkewRelay(t, srv.Addr(), dir)
		batch, singles := read(dial(t, relay.addr))
		if !reflect.DeepEqual(batch, wantBatch) || !reflect.DeepEqual(singles, wantSingles) {
			t.Fatalf("%s: the bridge read other verdicts than a revision-13 connection", dir.name)
		}
		binary, batches := relay.stats(12) // assess.batch.resp
		if _, answers := relay.stats(10); binary != 0 || batches != 1 || answers != len(ids) {
			t.Errorf("%s: %d binary payloads, %d assess.batch.resp and %d assess.resp frames crossed; want 0, 1 and %d", dir.name, binary, batches, answers, len(ids))
		}
	}
}

// TestRevision14ConnectionMirrors is the skew cell of revision 14, which
// mirrors on a connection the good bits of the histories its verdicts
// judge: a binary connection's chains over bits it has carried ride with no
// window counts, and a bridged one keeps no mirror, its payloads JSON. A
// revision-13 client of this node, and this client of a revision-13 node,
// run the paper's loop — a batch of verdicts, then for each server a report
// and a verdict, one report landing mid-history — and read every verdict
// exactly as a revision-14 connection to a node seeded alike reads it, and
// no binary payload crosses.
func TestRevision14ConnectionMirrors(t *testing.T) {
	var ids []feedback.EntityID
	for i := range 8 {
		ids = append(ids, feedback.EntityID(fmt.Sprintf("mirrored-%d", i)))
	}
	loop := func(t *testing.T, addr func(*repserver.Server) string) (verdicts []any) {
		srv := newServer(t)
		srv.Start()
		for i, id := range ids {
			if _, err := srv.Seed(history(id, 300+20*i)); err != nil {
				t.Fatal(err)
			}
		}
		c := dial(t, addr(srv))
		for round := range 3 {
			batch, err := c.AssessBatch(ids, threshold)
			if err != nil {
				t.Fatal(err)
			}
			verdicts = append(verdicts, batch)
			for i, id := range ids {
				at := int64(1000 + round)
				if round == 1 && i == 2 {
					at = 7 // mid-history: the store rebuilds it
				}
				rec := feedback.Feedback{Time: time.Unix(at, 0).UTC(), Server: id, Client: "loop", Rating: feedback.Rating(1 + (round+i)%2)}
				if _, err := c.Submit(rec); err != nil {
					t.Fatal(err)
				}
				resp, err := c.Assess(id, threshold)
				if err != nil {
					t.Fatal(err)
				}
				verdicts = append(verdicts, resp)
			}
		}
		return verdicts
	}
	want := loop(t, func(srv *repserver.Server) string { return srv.Addr() })
	// One end of revision 13, the other as far from it as the directions
	// put this build's neighbours.
	for _, dir := range []direction{{"older_client", 13, wire.VersionV2 + 1}, {"newer_client", wire.VersionV2 + 1, 13}} {
		var relay *skewRelay
		got := loop(t, func(srv *repserver.Server) string {
			relay = newSkewRelay(t, srv.Addr(), dir)
			return relay.addr
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the bridge read other verdicts than a revision-14 connection", dir.name)
		}
		binary, batches := relay.stats(12) // assess.batch.resp
		if _, answers := relay.stats(10); binary != 0 || batches != 3 || answers != 3*len(ids) {
			t.Errorf("%s: %d binary payloads, %d assess.batch.resp and %d assess.resp frames crossed; want 0, 3 and %d", dir.name, binary, batches, answers, 3*len(ids))
		}
	}
}

// TestRevision15ConnectionNames is the skew cell of revision 15, which
// binds every name a binary payload writes — server and client ids, tester
// and trust-function names — to a slot of a table the connection keeps in
// each direction, and writes it after that as its slot; a bridged
// connection keeps no tables, its payloads JSON. A revision-14 client of
// this node, and this client of a revision-14 node, run the paper's loop —
// a batch of verdicts, a batch of reports and each server's history, then
// for each server a report and a verdict — and read every answer exactly
// as a revision-15 connection to a node seeded alike reads it, and no
// binary payload crosses.
func TestRevision15ConnectionNames(t *testing.T) {
	var ids []feedback.EntityID
	for i := range 6 {
		ids = append(ids, feedback.EntityID(fmt.Sprintf("named-%d", i)))
	}
	loop := func(t *testing.T, addr func(*repserver.Server) string) (answers []any) {
		srv := newServer(t)
		srv.Start()
		for i, id := range ids {
			if _, err := srv.Seed(history(id, 200+10*i)); err != nil {
				t.Fatal(err)
			}
		}
		c := dial(t, addr(srv))
		for round := range 3 {
			batch, err := c.AssessBatch(ids, threshold)
			if err != nil {
				t.Fatal(err)
			}
			var recs []feedback.Feedback
			for i, id := range ids {
				recs = append(recs, feedback.Feedback{Time: time.Unix(int64(2000+round), 0).UTC(), Server: id,
					Client: feedback.EntityID(fmt.Sprint("reporter-", (i+round)%4)), Rating: feedback.Rating(1 + (round+i)%2)})
			}
			report, err := c.SubmitBatchReport(recs)
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, batch, report)
			for i, id := range ids {
				recs, total, err := c.History(id, 0)
				if err != nil {
					t.Fatal(err)
				}
				rec := feedback.Feedback{Time: time.Unix(int64(3000+round), 0).UTC(), Server: id, Client: "loop", Rating: feedback.Rating(1 + (round+i)%2)}
				if _, err := c.Submit(rec); err != nil {
					t.Fatal(err)
				}
				resp, err := c.Assess(id, threshold)
				if err != nil {
					t.Fatal(err)
				}
				answers = append(answers, recs, total, resp)
			}
		}
		return answers
	}
	want := loop(t, func(srv *repserver.Server) string { return srv.Addr() })
	// One end of revision 14, the other as far from it as the directions
	// put this build's neighbours.
	for _, dir := range []direction{{"older_client", 14, wire.VersionV2 + 1}, {"newer_client", wire.VersionV2 + 1, 14}} {
		var relay *skewRelay
		got := loop(t, func(srv *repserver.Server) string {
			relay = newSkewRelay(t, srv.Addr(), dir)
			return relay.addr
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the bridge read other answers than a revision-15 connection", dir.name)
		}
		binary, batches := relay.stats(12) // assess.batch.resp
		_, histories := relay.stats(8)     // history.resp
		if _, answers := relay.stats(10); binary != 0 || batches != 3 || histories != 3*len(ids) || answers != 3*len(ids) {
			t.Errorf("%s: %d binary payloads, %d assess.batch.resp, %d history.resp and %d assess.resp frames crossed; want 0, 3, %d and %d",
				dir.name, binary, batches, histories, answers, 3*len(ids), 3*len(ids))
		}
	}
}

// TestRevision16GossipRoundTrip is the skew cell of revision 16, which made
// the anti-entropy exchange one round trip of two binary payloads: a summary
// of the initiator's checksums, answered with the stale servers and one
// record batch of their histories. A reconciler of this build repairing
// from a node a revision away, either way round, meets it on the bridge:
// one summary and one answer cross, both JSON, and the round leaves the
// initiator's store holding exactly the peer's records, as a direct round
// does; the next round finds nothing stale.
func TestRevision16GossipRoundTrip(t *testing.T) {
	ids := []feedback.EntityID{"gossip-a", "gossip-b", "gossip-c"}
	for _, dir := range directions {
		src, dst := newServer(t), newServer(t)
		src.Start()
		dst.Start()
		total := 0
		for i, id := range ids {
			if _, err := src.Seed(history(id, 150+25*i)); err != nil {
				t.Fatal(err)
			}
			total += 150 + 25*i
		}
		relay := newSkewRelay(t, src.Addr(), dir)
		r, err := gossip.New(gossip.Config{Name: "dst", Node: dst, Peers: []string{relay.addr}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = r.Close() })
		if err := r.RoundOnce(); err != nil {
			t.Fatalf("%s: %v", dir.name, err)
		}
		if !reflect.DeepEqual(dst.Summary(), src.Summary()) || r.Received() != uint64(total) {
			t.Fatalf("%s: a round across the bridge pulled %d records of %d; stores differ: %v",
				dir.name, r.Received(), total, !reflect.DeepEqual(dst.Summary(), src.Summary()))
		}
		if err := r.RoundOnce(); err != nil || r.InSyncRounds() != 1 {
			t.Fatalf("%s: second round: %v, in-sync rounds %d", dir.name, err, r.InSyncRounds())
		}
		binary, summaries := relay.stats(15) // gossip.summary
		if _, answers := relay.stats(16); binary != 0 || summaries != 2 || answers != 2 {
			t.Errorf("%s: %d binary payloads, %d summaries and %d answers crossed; want 0, 2 and 2",
				dir.name, binary, summaries, answers)
		}
	}
}

// TestJSONLineIsClosedAtTheDoor: the JSON line framing is gone, so a JSON
// line at the door is closed unanswered and counted in errors; a connection
// closed before its first byte — a readiness probe — is not an error.
func TestJSONLineIsClosedAtTheDoor(t *testing.T) {
	srv := newServer(t)
	srv.Start()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Write([]byte(`{"v":1,"type":"ping","id":1}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if n, err := conn.Read(make([]byte, 64)); n != 0 || err == nil {
		t.Fatalf("JSON line answered: %d bytes, %v", n, err)
	}
	probe, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_ = probe.Close()
	for srv.Metrics().Value("connections").(uint64) < 2 {
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil { // waits for both connections' handlers
		t.Fatal(err)
	}
	if got := srv.Metrics().Value("errors"); got != uint64(1) {
		t.Fatalf("errors = %v, want 1: the JSON line counts, the probe does not", got)
	}
}

// TestOverlongIDRefusedAtDurableDoor: a bridged client's submit.batch is
// JSON, which bounds no id, so a record whose client id is above the 1,024
// bytes every record encoding carries reaches the node. At a ledger-backed
// door it fails its own slot with invalid_feedback, on the retry too, while
// its sibling is stored once; the history holds the sibling alone, before
// and after a restart. It used to be served from memory, never persisted,
// and acknowledged as a duplicate on retry.
func TestOverlongIDRefusedAtDurableDoor(t *testing.T) {
	dir := t.TempDir()
	ps, err := ledger.OpenStoreOptions(context.Background(), dir, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServerWith(t, repserver.Config{Store: ps.Store(), Recorder: ps})
	srv.Start()
	relay := newSkewRelay(t, srv.Addr(), directions[0])
	c := dial(t, relay.addr)
	sibling := feedback.Feedback{Time: time.Unix(1, 0).UTC(), Server: "s", Client: "c", Rating: feedback.Positive}
	recs := []feedback.Feedback{
		{Time: time.Unix(1, 0).UTC(), Server: "s", Client: feedback.EntityID(strings.Repeat("x", 2000)), Rating: feedback.Positive},
		sibling,
	}
	for attempt := range 2 {
		resp, err := c.SubmitBatchReport(recs)
		if err != nil {
			t.Fatalf("attempt %d: %v", attempt, err)
		}
		if e := resp.Items[0].Error; e == nil || e.Code != wire.CodeInvalidFeedback {
			t.Fatalf("attempt %d: overlong record answered %+v, want invalid_feedback", attempt, resp.Items[0])
		}
		if item := resp.Items[1]; item.Error != nil || item.Stored != (attempt == 0) {
			t.Fatalf("attempt %d: sibling answered %+v", attempt, item)
		}
	}
	if binary, frames := relay.stats(5); binary != 0 || frames != 2 { // 5: submit.batch
		t.Fatalf("%d of %d submit.batch frames crossed in binary, want 0 of 2", binary, frames)
	}
	if recs, _, err := c.History("s", 0); err != nil || !reflect.DeepEqual(recs, []feedback.Feedback{sibling}) {
		t.Fatalf("history %v, %v; want the sibling alone", recs, err)
	}
	if err := errors.Join(srv.Close(), ps.Close()); err != nil {
		t.Fatal(err)
	}
	ps, err = ledger.OpenStoreOptions(context.Background(), dir, ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if got := ps.Store().Records("s"); !reflect.DeepEqual(got, []feedback.Feedback{sibling}) {
		t.Fatalf("after a restart the store holds %v", got)
	}
}
