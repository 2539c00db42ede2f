package repserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"honestplayer/internal/cluster"
	"honestplayer/internal/feedback"
	"honestplayer/internal/repclient"
	"honestplayer/internal/service"
	"honestplayer/internal/stats"
	"honestplayer/internal/wire"
)

// startCluster starts n servers on ephemeral ports and wires them into one
// cluster (IDs "n1".."nN", replica factor r). Returns the servers in ID
// order; each has its cluster view attached before it starts serving.
func startCluster(t *testing.T, n, r int, cfg func() Config) []*Server {
	t.Helper()
	servers := make([]*Server, n)
	members := make([]cluster.Node, n)
	for i := range servers {
		srv, err := New("127.0.0.1:0", cfg())
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		members[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), Addr: srv.Addr()}
	}
	for i, srv := range servers {
		cl, err := cluster.New(cluster.Config{
			Self: members[i].ID, Nodes: members, Replicas: r, DialTimeout: 3 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetCluster(cl)
		srv.Start()
		t.Cleanup(func() {
			_ = cl.Close()
			_ = srv.Close()
		})
	}
	return servers
}

// TestClusterE2E: a 3-node cluster with replica factor 2. All traffic enters
// through node 1; ownership is partitioned, replicas converge synchronously,
// and a verdict obtained through ANY node equals the owner's own verdict.
// The incremental variant sets the deprecated Incremental setting, which
// changes nothing.
func TestClusterE2E(t *testing.T) {
	t.Run("recompute", func(t *testing.T) {
		testClusterE2E(t, func() Config { return Config{Assessor: testAssessor(t)} })
	})
	t.Run("incremental", func(t *testing.T) {
		testClusterE2E(t, func() Config { return Config{Assessor: testAssessor(t), Incremental: true} })
	})
}

func testClusterE2E(t *testing.T, cfg func() Config) {
	servers := startCluster(t, 3, 2, cfg)
	entry := dial(t, servers[0])
	cl0 := servers[0].Cluster()

	// 9 servers with distinct histories, all submitted through node 1.
	var recs []feedback.Feedback
	var ids []feedback.EntityID
	for i := 0; i < 9; i++ {
		id := feedback.EntityID(fmt.Sprintf("e2e-server-%02d", i))
		ids = append(ids, id)
		for j := 0; j < 30; j++ {
			good := j%(i+2) != 0 // different good/bad mix per server
			recs = append(recs, rec(id, feedback.EntityID(fmt.Sprintf("client-%d", j)), good, int64(1000*i+j)))
		}
	}
	report, err := entry.SubmitBatchReport(recs)
	if err != nil {
		t.Fatal(err)
	}
	if report.Stored != len(recs) || len(report.Rejected) != 0 {
		t.Fatalf("batch through node 1: stored %d of %d, rejected %v", report.Stored, len(recs), report.Rejected)
	}

	// Placement: exactly the replica set holds each server's records.
	owners := make(map[string]bool)
	for _, id := range ids {
		set := cl0.ReplicaSet(id)
		owners[set[0]] = true
		if len(set) != 2 {
			t.Fatalf("replica set of %q = %v; want 2 nodes", id, set)
		}
		inSet := map[string]bool{set[0]: true, set[1]: true}
		for i, srv := range servers {
			nodeID := fmt.Sprintf("n%d", i+1)
			h, _ := srv.Store().Snapshot(id)
			if inSet[nodeID] && h.Len() != 30 {
				t.Fatalf("node %s holds %d records of %q; replica set %v expects 30", nodeID, h.Len(), id, set)
			}
			if !inSet[nodeID] && h.Len() != 0 {
				t.Fatalf("node %s holds %d records of %q but is not in replica set %v", nodeID, h.Len(), id, set)
			}
		}
	}
	if len(owners) < 2 {
		t.Fatalf("all 9 servers landed on %d owner(s); partitioning looks broken", len(owners))
	}

	// The tentpole acceptance: assess every server through every node; the
	// verdict must match the owner's, whichever door the request came in.
	for _, id := range ids {
		var want wire.AssessResponse
		for i, srv := range servers {
			c := dial(t, srv)
			got, err := c.Assess(id, 0.6)
			if err != nil {
				t.Fatalf("assess %q via node %d: %v", id, i+1, err)
			}
			if i == 0 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("assess %q via node %d diverges:\n got %+v\nwant %+v", id, i+1, got, want)
			}
		}
	}

	// Batch assessment through one node answers exactly like the single
	// calls, including servers the entry node does not hold.
	items, err := entry.AssessBatch(ids, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for i, item := range items {
		if item.Error != nil {
			t.Fatalf("batch item %q: %v", ids[i], item.Error)
		}
		single, err := entry.Assess(ids[i], 0.6)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := item.AssessResponse, single; !reflect.DeepEqual(got, want) {
			t.Fatalf("batch item %q diverges from single assess:\n got %+v\nwant %+v", ids[i], got, want)
		}
	}

	// Duplicate detection works across doors: a record submitted through
	// node 1 is a duplicate when resubmitted through node 3.
	other := dial(t, servers[2])
	stored, err := other.Submit(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	if stored {
		t.Fatal("record stored twice when resubmitted through another node")
	}

	// The routing counters moved: node 1 forwarded writes and reads.
	m := servers[0].Metrics()
	if m.Value("cluster.enabled") != true || m.Value("cluster.node") != "n1" {
		t.Fatalf("cluster block not populated: enabled %v, node %v", m.Value("cluster.enabled"), m.Value("cluster.node"))
	}
	if m.Value("cluster.forwarded") == uint64(0) {
		t.Fatal("node 1 forwarded nothing despite remote-owned submissions")
	}
	if got := m.Value("cluster.forward_errors"); got != uint64(0) {
		t.Fatalf("forward errors on a healthy cluster: %v", got)
	}
	if rtts, _ := m.Value("cluster.peer_rtt_ms").(map[string]float64); len(rtts) == 0 || m.Value("cluster.replicas") != 2 {
		t.Fatalf("cluster block: peer_rtt_ms %v, replicas %v", m.Value("cluster.peer_rtt_ms"), m.Value("cluster.replicas"))
	}
}

// TestClusterUnknownServerRelayed: an assess for a server nobody has seen
// fails with the same typed unknown_server error a single node produces,
// even when the answer comes from forwarded replicas.
func TestClusterUnknownServerRelayed(t *testing.T) {
	servers := startCluster(t, 3, 2, func() Config { return Config{Assessor: testAssessor(t)} })
	for i, srv := range servers {
		c := dial(t, srv)
		_, err := c.Assess("never-seen", 0.9)
		var typed *wire.ErrorResponse
		if !errors.As(err, &typed) || typed.Code != wire.CodeUnknownServer {
			t.Fatalf("assess unknown via node %d: got %v; want typed %s", i+1, err, wire.CodeUnknownServer)
		}
	}
}

// TestClusterClosedDialsNothing: a node's cluster view, once closed — the
// last step of a node's shutdown, after the server drained — fails every
// forward, over a pooled connection or to a peer never dialed, and opens
// no connection to a peer.
func TestClusterClosedDialsNothing(t *testing.T) {
	servers := startCluster(t, 3, 2, func() Config { return Config{Assessor: testAssessor(t)} })
	cl := servers[0].Cluster()
	ctx := context.Background()
	if _, err := cl.ForwardAssessBatch(ctx, "n2", []feedback.EntityID{"s"}, 0.9); err != nil {
		t.Fatal(err)
	}
	conns := func() [2]any {
		return [2]any{servers[1].Metrics().Value("connections"), servers[2].Metrics().Value("connections")}
	}
	before := conns()
	if before != [2]any{uint64(1), uint64(0)} {
		t.Fatalf("connections accepted by n2, n3 after one forward to n2: %v", before)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	for _, node := range []string{"n2", "n3"} {
		if _, err := cl.ForwardAssessBatch(ctx, node, []feedback.EntityID{"s"}, 0.9); !errors.Is(err, repclient.ErrClosed) {
			t.Fatalf("forward to %s after Close: %v; want repclient.ErrClosed", node, err)
		}
	}
	if after := conns(); after != before {
		t.Fatalf("connections accepted by n2, n3: %v before Close, %v after", before, after)
	}
}

// TestClusterStatusOnRegistry: a node's view of its cluster is the cluster
// block of its registry (trustctl cluster-status prints it): membership by
// ID with addresses from a clustered node, enabled false and no members
// from a plain one.
func TestClusterStatusOnRegistry(t *testing.T) {
	servers := startCluster(t, 3, 2, func() Config { return Config{Assessor: testAssessor(t)} })
	reg := servers[1].Metrics()
	peers, _ := reg.Value("cluster.peers").(map[string]string)
	if reg.Value("cluster.enabled") != true || reg.Value("cluster.node") != "n2" || reg.Value("cluster.replicas") != 2 ||
		reg.Value("cluster.vnodes") != cluster.DefaultVNodes || len(peers) != 3 || peers["n3"] != servers[2].Addr() {
		t.Fatalf("cluster block: enabled %v node %v replicas %v vnodes %v peers %v", reg.Value("cluster.enabled"),
			reg.Value("cluster.node"), reg.Value("cluster.replicas"), reg.Value("cluster.vnodes"), peers)
	}

	plain := startServer(t).Metrics()
	if plain.Value("cluster.enabled") != false || plain.Value("cluster.peers") != nil || plain.Value("cluster.vnodes") != nil {
		t.Fatalf("plain server's cluster block: enabled %v peers %v vnodes %v", plain.Value("cluster.enabled"),
			plain.Value("cluster.peers"), plain.Value("cluster.vnodes"))
	}
}

// TestSingleNodeClusterDifferential: a 1-node "cluster" must be
// bit-identical to a plain server — same stores, same wire responses —
// because every key's replica set collapses to the node itself and routing
// never leaves the local path.
func TestSingleNodeClusterDifferential(t *testing.T) {
	plain := startServer(t)
	clustered := startCluster(t, 1, 1, func() Config { return Config{Assessor: testAssessor(t)} })[0]

	var recs []feedback.Feedback
	var ids []feedback.EntityID
	for i := 0; i < 5; i++ {
		id := feedback.EntityID(fmt.Sprintf("diff-server-%d", i))
		ids = append(ids, id)
		for j := 0; j < 25; j++ {
			recs = append(recs, rec(id, feedback.EntityID(fmt.Sprintf("c%d", j)), j%3 != 0, int64(100*i+j)))
		}
	}

	pc, cc := dial(t, plain), dial(t, clustered)
	pStored, pDup, err := pc.SubmitBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	cStored, cDup, err := cc.SubmitBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	if pStored != cStored || pDup != cDup {
		t.Fatalf("batch outcome differs: plain %d/%d, clustered %d/%d", pStored, pDup, cStored, cDup)
	}

	// Assess twice per server so cache-hit responses are compared too; the
	// raw responses (flags included) must match exactly.
	for round := 0; round < 2; round++ {
		for _, id := range ids {
			pr, err := pc.Assess(id, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			cr, err := cc.Assess(id, 0.7)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pr, cr) {
				t.Fatalf("round %d: single-node cluster diverges from plain server for %q:\nplain     %+v\nclustered %+v", round, id, pr, cr)
			}
		}
	}
}

// roles names, for server id, the indices into servers of its owner, its
// other replica, and the one node outside its replica set (3 nodes,
// replica factor 2).
func roles(t *testing.T, servers []*Server, id feedback.EntityID) (owner, replica, outside int) {
	t.Helper()
	index := map[string]int{"n1": 0, "n2": 1, "n3": 2}
	set := servers[0].Cluster().ReplicaSet(id)
	if len(set) != 2 || len(servers) != 3 {
		t.Fatalf("replica set %v of %d nodes; want 2 of 3", set, len(servers))
	}
	owner, replica = index[set[0]], index[set[1]]
	return owner, replica, 3 - owner - replica
}

// readThrough assesses id through door twice, as a single assess and as an
// item of an assess.batch, and fails unless the two answers DeepEqual.
func readThrough(t *testing.T, door *Server, id feedback.EntityID) wire.AssessResponse {
	t.Helper()
	c := dial(t, door)
	single, err := c.Assess(id, 0.6)
	if err != nil {
		t.Fatalf("single assess of %q: %v", id, err)
	}
	items, err := c.AssessBatch([]feedback.EntityID{id}, 0.6)
	if err != nil {
		t.Fatalf("assess.batch of %q: %v", id, err)
	}
	if items[0].Error != nil {
		t.Fatalf("assess.batch item of %q: %v", id, items[0].Error)
	}
	if !reflect.DeepEqual(items[0].AssessResponse, single) {
		t.Fatalf("batch item and single assess of %q differ:\n item %+v\nsingle %+v", id, items[0].AssessResponse, single)
	}
	return single
}

// localVerdict is srv's own answer for id from its local state.
func localVerdict(t *testing.T, srv *Server, id feedback.EntityID) wire.AssessResponse {
	t.Helper()
	resp, err := srv.Assess(context.Background(), wire.AssessRequest{Server: id, Threshold: 0.6})
	if err != nil {
		t.Fatalf("local assess of %q: %v", id, err)
	}
	return resp
}

// honestHistory is n records of an honest server id (p = 0.9) — at n = 200,
// long enough for the two-phase verdict to leave short-history mode, so one
// record more or less moves it.
func honestHistory(id feedback.EntityID, n int) []feedback.Feedback {
	rng := stats.NewRNG(7)
	recs := make([]feedback.Feedback, n)
	for j := range recs {
		recs[j] = rec(id, feedback.EntityID(fmt.Sprintf("c%d", rng.Intn(20))), rng.Bernoulli(0.9), int64(j))
	}
	return recs
}

// seedThrough submits recs through door.
func seedThrough(t *testing.T, door *Server, recs []feedback.Feedback) {
	t.Helper()
	if _, _, err := dial(t, door).SubmitBatch(recs); err != nil {
		t.Fatal(err)
	}
}

// TestClusterDivergedSetAnswersOwner: a replica that holds a record its owner
// does not (as if the owner's replication push had been lost and the replica
// had taken a write some other way) changes nothing for a door outside the
// set: the single assess and the batch item both answer with the owner's own
// verdict, never a blend of the two views.
func TestClusterDivergedSetAnswersOwner(t *testing.T) {
	servers := startCluster(t, 3, 2, func() Config { return Config{Assessor: testAssessor(t)} })
	const id = feedback.EntityID("diverged-server")
	owner, replica, outside := roles(t, servers, id)
	seedThrough(t, servers[outside], honestHistory(id, 200))

	if ok, err := servers[replica].Store().Add(rec(id, "straggler", false, 999)); err != nil || !ok {
		t.Fatalf("inject divergent record: ok=%v err=%v", ok, err)
	}
	want := localVerdict(t, servers[owner], id)
	if reflect.DeepEqual(localVerdict(t, servers[replica], id), want) {
		t.Fatal("the injected record did not move the replica's verdict; the test proves nothing")
	}
	if got := readThrough(t, servers[outside], id); !reflect.DeepEqual(got, want) {
		t.Fatalf("door's answer on a diverged set is not the owner's verdict:\n got %+v\nwant %+v", got, want)
	}
}

// TestClusterReadFailover: with the owner of a server down, a door outside
// its replica set still answers — the single assess and the assess.batch item
// alike — from the surviving replica, with exactly the verdict that replica
// computes locally.
func TestClusterReadFailover(t *testing.T) {
	servers := startCluster(t, 3, 2, func() Config { return Config{Assessor: testAssessor(t)} })
	const id = feedback.EntityID("failover-server")
	owner, replica, outside := roles(t, servers, id)
	// Seeding through the door pools its connection to the owner, so the
	// close below breaks a live connection rather than refusing a dial.
	seedThrough(t, servers[outside], honestHistory(id, 200))
	if err := servers[owner].Close(); err != nil {
		t.Fatal(err)
	}

	want := localVerdict(t, servers[replica], id)
	if got := readThrough(t, servers[outside], id); !reflect.DeepEqual(got, want) {
		t.Fatalf("door's answer with the owner down is not the replica's verdict:\n got %+v\nwant %+v", got, want)
	}
	if servers[outside].Metrics().Value("cluster.forward_errors") == uint64(0) {
		t.Fatal("no forward to the closed owner failed")
	}

	// With the whole set down the walk ends, and both reads say so.
	if err := servers[replica].Close(); err != nil {
		t.Fatal(err)
	}
	c := dial(t, servers[outside])
	if _, err := c.Assess(id, 0.6); codeOf(t, err) != wire.CodeUnavailable {
		t.Fatalf("single assess with the replica set down: %v, want %s", err, wire.CodeUnavailable)
	}
	items, err := c.AssessBatch([]feedback.EntityID{id}, 0.6)
	if err != nil || items[0].Error == nil || items[0].Error.Code != wire.CodeUnavailable {
		t.Fatalf("assess.batch with the replica set down: %+v, %v; want an unavailable item", items, err)
	}
}

// TestClusterBatchCounters: the door of an assess.batch counts every item of
// the frame — forwarded ones included — and a single submit through a
// non-owner door reaches the owner as a fwd.submit.batch frame without
// moving the door's batch counters.
func TestClusterBatchCounters(t *testing.T) {
	servers := startCluster(t, 3, 1, func() Config { return Config{Assessor: testAssessor(t)} })
	door, cl := servers[0], servers[0].Cluster()
	c := dial(t, door)

	var ids []feedback.EntityID
	remote := 0
	for i := 0; i < 12; i++ {
		id := feedback.EntityID(fmt.Sprintf("counted-%02d", i))
		ids = append(ids, id)
		if !cl.IsOwner(id) {
			remote++
		}
		if stored, err := c.Submit(rec(id, "alice", true, int64(i+1))); err != nil || !stored {
			t.Fatalf("single submit of %q through the door: stored=%v err=%v", id, stored, err)
		}
	}
	if remote == 0 || remote == len(ids) {
		t.Fatalf("%d of %d servers are remote to the door; the test needs both kinds", remote, len(ids))
	}
	if m := door.Metrics(); m.Value("submit_batches") != uint64(0) || m.Value("submit_batch_items") != uint64(0) {
		t.Fatalf("single submits moved the door's batch counters: %v/%v", m.Value("submit_batches"), m.Value("submit_batch_items"))
	}
	var fwdFrames uint64
	for _, srv := range servers[1:] {
		per, _ := srv.Metrics().Value("per_type").(service.Snapshot)
		fwdFrames += per[string(wire.TypeFwdBatch)].Requests
		if _, ok := per["fwd.submit"]; ok {
			t.Fatal("a node served the retired fwd.submit type")
		}
	}
	if fwdFrames != uint64(remote) {
		t.Fatalf("owners served %d fwd.submit.batch frames, want one per remote single submit (%d)", fwdFrames, remote)
	}

	items, err := c.AssessBatch(ids, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range items {
		if item.Error != nil {
			t.Fatalf("item %q: %v", item.Server, item.Error)
		}
	}
	if got := door.Metrics().Value("batch_items"); got != uint64(len(ids)) {
		t.Fatalf("door batch_items = %v, want every item of the frame (%d)", got, len(ids))
	}
}

// shortPeer is a cluster member that answers fwd.*.batch frames without the
// per-item report: a stand-in for a peer the door cannot align with its
// request.
func shortPeer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = nc.Close() }()
				r := bufio.NewReader(nc)
				if _, err := wire.ReadHello(r); err != nil || wire.WriteHelloAck(nc) != nil {
					return
				}
				for {
					env, err := wire.ReadV2(r)
					if err != nil {
						return
					}
					var resp wire.Envelope
					switch env.Type {
					case wire.TypeFwdBatch:
						resp, _ = wire.V2Codec.Encode(wire.TypeFwdBatchR, env.ID, wire.BatchResponse{Stored: 1})
					case wire.TypeFwdAssessB:
						resp, _ = wire.V2Codec.Encode(wire.TypeFwdAssessBR, env.ID, wire.FwdAssessBatchResponse{Node: "n2"})
					default:
						resp, _ = wire.V2Codec.Encode(wire.TypePong, env.ID, nil)
					}
					if wire.WriteV2(nc, resp) != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClusterShortPeerReportFailsItsGroup: an owner answering a forwarded
// batch without one item per record (or server) fails exactly its own
// group; the door's own items are served and the response still accounts
// for every request position.
func TestClusterShortPeerReportFailsItsGroup(t *testing.T) {
	door, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t)})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Self:     "n1",
		Nodes:    []cluster.Node{{ID: "n1", Addr: door.Addr()}, {ID: "n2", Addr: shortPeer(t)}},
		Replicas: 1, DialTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	door.SetCluster(cl)
	door.Start()
	t.Cleanup(func() {
		_ = cl.Close()
		_ = door.Close()
	})

	var mine, theirs feedback.EntityID
	for i := 0; mine == "" || theirs == ""; i++ {
		id := feedback.EntityID(fmt.Sprintf("short-%d", i))
		if cl.IsOwner(id) {
			mine = id
		} else {
			theirs = id
		}
	}
	c := dial(t, door)
	resp, err := c.SubmitBatchReport([]feedback.Feedback{rec(theirs, "a", true, 1), rec(mine, "a", true, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stored != 1 || resp.Duplicates != 0 || len(resp.Rejected) != 1 || resp.Rejected[0].Index != 0 {
		t.Fatalf("report = %+v, want the door's record stored and the peer's rejected", resp)
	}
	if e := resp.Items[0].Error; e == nil || e.Code != wire.CodeUnavailable {
		t.Fatalf("peer's item = %+v, want unavailable", resp.Items[0])
	}
	if !resp.Items[1].Stored {
		t.Fatalf("door's item = %+v, want stored", resp.Items[1])
	}

	items, err := c.AssessBatch([]feedback.EntityID{theirs, mine}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if e := items[0].Error; e == nil || e.Code != wire.CodeUnavailable || items[0].Server != theirs {
		t.Fatalf("peer's assess item = %+v, want unavailable", items[0])
	}
	if items[1].Error != nil || items[1].Server != mine {
		t.Fatalf("door's assess item = %+v, want a verdict", items[1])
	}
}

// TestClusterBatchInvalidRecordsFailAtTheDoor: a submit.batch whose records
// span every owner, with records no encoding carries among them — a client
// sends such a frame as JSON — answers through a cluster door exactly as a
// single node does: each invalid record fails its own slot, at the door,
// and every valid one lands on its replica set, its item at its request
// position.
func TestClusterBatchInvalidRecordsFailAtTheDoor(t *testing.T) {
	servers := startCluster(t, 3, 2, func() Config { return Config{Assessor: testAssessor(t)} })
	single, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t)})
	if err != nil {
		t.Fatal(err)
	}
	single.Start()
	t.Cleanup(func() { _ = single.Close() })

	var recs []feedback.Feedback
	for i := range 24 {
		recs = append(recs, rec(feedback.EntityID(fmt.Sprintf("door-%02d", i%8)), "alice", i%3 != 0, int64(i+1)))
	}
	bad := feedback.Feedback{Server: "door-00", Client: "alice", Rating: feedback.Positive} // the zero time
	recs = slices.Insert(recs, 0, bad)
	recs = slices.Insert(recs, 13, feedback.Feedback{Time: time.Unix(5, 0), Server: "door-03", Client: "bob"})
	recs = append(recs, bad)
	want, err := dial(t, single).SubmitBatchReport(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dial(t, servers[0]).SubmitBatchReport(recs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("door answered %+v, a single node %+v", got, want)
	}
	if got.Stored != 24 || len(got.Rejected) != 3 || got.Rejected[1].Index != 13 {
		t.Fatalf("door answered %+v, want 24 stored and records 0, 13 and 26 refused", got)
	}
	for i := range 8 {
		id := feedback.EntityID(fmt.Sprintf("door-%02d", i))
		for _, node := range servers[0].Cluster().ReplicaSet(id) {
			srv := servers[node[1]-'1']
			if h, _ := srv.Store().Snapshot(id); h.Len() != 3 {
				t.Fatalf("replica %s holds %d records of %q, want 3", node, h.Len(), id)
			}
		}
	}
}

// TestClusterBatchWithoutRecordsKey: a bridged peer's JSON submit.batch or
// fwd.submit.batch without a "records" key is a batch of no records on a
// node with replicas to push to: an empty answer, not an internal error.
func TestClusterBatchWithoutRecordsKey(t *testing.T) {
	servers := startCluster(t, 3, 2, func() Config { return Config{Assessor: testAssessor(t)} })
	ctx := service.WithCodec(context.Background(), wire.BridgeCodec)
	for _, c := range []struct {
		req, resp wire.MsgType
		payload   string
	}{
		{wire.TypeSubmitB, wire.TypeSubmitBR, `{}`},
		{wire.TypeFwdBatch, wire.TypeFwdBatchR, `{"node":"n2"}`},
	} {
		resp, err := servers[0].pipeline(ctx, wire.Envelope{Type: c.req, ID: 1, Payload: []byte(c.payload)})
		if err != nil || resp.Type != c.resp {
			t.Fatalf("%s %s: answered %s %s, %v", c.req, c.payload, resp.Type, resp.Payload, err)
		}
		var got wire.BatchResponse
		if err := wire.DecodePayload(resp, &got); err != nil || len(got.Items) != 0 || got.Stored != 0 {
			t.Fatalf("%s %s: answered %+v, %v", c.req, c.payload, got, err)
		}
	}
}
