package repserver

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/gossip"
	"honestplayer/internal/repclient"
	"honestplayer/internal/service"
	"honestplayer/internal/store"
	"honestplayer/internal/wire"
)

// TestClusterRepairEndToEnd loses one fwd.submit.batch replica push (the
// replica's listener is down for the write), shows the replica set diverged
// — by checksum and by the replica's own verdict — while a door outside the
// set keeps answering with the owner's verdict, and lets anti-entropy —
// riding the same listeners and pooled connections as the fwd.* hops —
// repair it: checksums and verdicts agree again, and the node outside the
// replica set pulls nothing.
func TestClusterRepairEndToEnd(t *testing.T) {
	const id = feedback.EntityID("repair-server")
	stores := []*store.Store{store.New(), store.New(), store.New()}
	next := 0
	servers := startCluster(t, 3, 2, func() Config {
		next++
		return Config{Assessor: testAssessor(t), Store: stores[next-1]}
	})
	owner, replica, outside := roles(t, servers, id)

	seedThrough(t, servers[outside], honestHistory(id, 200))
	if got := stores[replica].ServerLen(id); got != 200 {
		t.Fatalf("replica holds %d records before the fault, want 200", got)
	}

	// The replica's listener goes away for one write, then comes back on
	// the same address with the same store.
	addr, view := servers[replica].Addr(), servers[replica].Cluster()
	if err := servers[replica].Close(); err != nil {
		t.Fatal(err)
	}
	if ok, err := dial(t, servers[owner]).Submit(rec(id, "lost-push", false, 999)); err != nil || !ok {
		t.Fatalf("submit at the owner with its replica down: stored=%v err=%v", ok, err)
	}
	reopened, err := New(addr, Config{Assessor: testAssessor(t), Store: stores[replica]})
	if err != nil {
		t.Fatal(err)
	}
	reopened.SetCluster(view)
	reopened.Start()
	t.Cleanup(func() { _ = reopened.Close() })
	servers[replica] = reopened
	if o, r := stores[owner].ServerChecksum(id), stores[replica].ServerChecksum(id); o.Count != 201 || r.Count != 200 {
		t.Fatalf("after the lost push: owner %+v replica %+v, want 201 and 200 records", o, r)
	}

	ownerView := localVerdict(t, servers[owner], id)
	if reflect.DeepEqual(localVerdict(t, servers[replica], id), ownerView) {
		t.Fatal("the lost push did not move the replica's verdict; the test proves nothing")
	}
	if got := readThrough(t, servers[outside], id); !reflect.DeepEqual(got, ownerView) {
		t.Fatalf("door's answer on the diverged set is not the owner's verdict:\n got %+v\nwant %+v", got, ownerView)
	}

	recons := make([]*gossip.Reconciler, len(servers))
	for i, srv := range servers {
		r, err := gossip.New(gossip.Config{Name: fmt.Sprintf("n%d", i+1), Node: srv, Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = r.Close() })
		recons[i] = r
	}
	forwardedBefore := servers[replica].Metrics().Value("cluster.forwarded")
	for round := 0; round < 40 && stores[owner].ServerChecksum(id) != stores[replica].ServerChecksum(id); round++ {
		for _, r := range recons {
			if err := r.RoundOnce(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if o, r := stores[owner].ServerChecksum(id), stores[replica].ServerChecksum(id); o != r || r.Count != 201 {
		t.Fatalf("replica set did not converge: owner %+v replica %+v", o, r)
	}
	if got := recons[replica].Received(); got != 1 {
		t.Fatalf("replica pulled %d records, want the 1 it missed", got)
	}
	if recons[outside].Received() != 0 || stores[outside].Len() != 0 {
		t.Fatalf("node outside the replica set pulled %d records and holds %d, want none",
			recons[outside].Received(), stores[outside].Len())
	}
	// Repair traffic is cluster traffic: it rode the pooled connections and
	// moved their counters.
	if got := servers[replica].Metrics().Value("cluster.forwarded"); got == forwardedBefore {
		t.Fatal("anti-entropy rounds did not count as forwarded calls")
	}

	if got := localVerdict(t, servers[replica], id); !reflect.DeepEqual(got, ownerView) {
		t.Fatalf("repaired replica's verdict differs from the owner's:\n got %+v\nwant %+v", got, ownerView)
	}
	if got := readThrough(t, servers[outside], id); !reflect.DeepEqual(got, ownerView) {
		t.Fatalf("door's answer after repair is not the owner's verdict:\n got %+v\nwant %+v", got, ownerView)
	}
}

// TestGossipExchangeSameOverEitherFraming: the anti-entropy round trip is
// served by the ordinary pipeline, so a bridged client and a binary one get
// the same stale list and the same records — the whole history of each
// stale server — and the exchange shows up in the per-type metrics.
func TestGossipExchangeSameOverEitherFraming(t *testing.T) {
	srv := startServer(t)
	var held []feedback.Feedback
	for i := 0; i < 12; i++ {
		held = append(held, rec("s1", feedback.EntityID(fmt.Sprintf("c%d", i)), i%3 != 0, int64(i+1)))
	}
	held = append(held, rec("s2", "c", true, 1))
	if _, err := srv.Seed(held); err != nil {
		t.Fatal(err)
	}
	// The caller holds another record set of s1 and s2 exactly.
	summary := wire.SummaryMsg{Node: "peer", Servers: map[string]store.Checksum{
		"s1": {Count: 5, XOR: 1},
		"s2": srv.Summary()["s2"],
	}}

	type answer struct {
		Stale   []string
		Records []feedback.Feedback
	}
	var answers []answer
	eachFraming(t, func(t *testing.T, connect func(*Server) *repclient.Client) {
		sr, err := connect(srv).GossipSummaryCtx(context.Background(), summary)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, answer{Stale: sr.Stale, Records: sr.Records.Batch.Records()})
	})
	want := answer{Stale: []string{"s1"}, Records: held[:12]}
	for i, got := range answers {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("framing %d answered\n %+v\nwant\n %+v", i, got, want)
		}
	}
	pt, _ := srv.Metrics().Value("per_type").(service.Snapshot)
	if s := pt[string(wire.TypeSummary)]; s.Requests != 2 || s.Errors != 0 {
		t.Fatalf("per_type summary row: %+v", s)
	}
}

// TestGossipSummaryDeadline: a gossip.summary whose handler outlives
// RequestTimeout — here stuck faulting in the evicted history of a server
// the peer lacks — is answered deadline_exceeded like any other request,
// and the connection stays usable.
func TestGossipSummaryDeadline(t *testing.T) { eachFraming(t, testGossipSummaryDeadline) }

func testGossipSummaryDeadline(t *testing.T, connect func(*Server) *repclient.Client) {
	st := store.New()
	release := make(chan struct{})
	st.SetBudget(1<<30, func(feedback.EntityID) (*feedback.History, error) { // stalls until released
		<-release
		return nil, errNoCopy
	})
	srv, err := New("127.0.0.1:0", Config{
		Assessor: testAssessor(t), Store: st, RequestTimeout: 80 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() {
		close(release) // let the abandoned handler goroutine finish
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if _, err := srv.Seed([]feedback.Feedback{rec("cold", "alice", true, 1)}); err != nil {
		t.Fatal(err)
	}
	if !st.EvictServer("cold") {
		t.Fatal("server did not evict")
	}

	c := connect(srv)
	start := time.Now()
	_, err = c.GossipSummaryCtx(context.Background(), wire.SummaryMsg{Node: "peer"})
	if code := codeOf(t, err); code != wire.CodeDeadlineExceeded {
		t.Fatalf("stalled summary answered %q, want %s", code, wire.CodeDeadlineExceeded)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline reply took %s", elapsed)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after deadline error: %v", err)
	}
	if s := srv.Metrics().Value("per_type").(service.Snapshot)[string(wire.TypeSummary)]; s.Requests != 1 || s.Errors != 1 {
		t.Fatalf("summary metrics = %+v", s)
	}
}

// TestGossipRepairBytes pins what a stale server's repair costs on a
// connection: its whole history in the answer's one record batch, at most
// 4.6 B a record for a 5,000-record server (revision 15's JSON digest cost
// 20.4 B for every record the initiator held, and its delta 87 B for every
// one it missed). It logs a summary's bytes per server as well.
func TestGossipRepairBytes(t *testing.T) {
	srv := startServer(t)
	const n = 5000
	if _, err := srv.Seed(honestHistory("stale-server", n)); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.gossipSummary(context.Background(), wire.SummaryMsg{Node: "peer",
		Servers: map[string]store.Checksum{"stale-server": {Count: n - 1, XOR: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	env, err := wire.CodecFor(wire.VersionV2).Encode(wire.TypeSummaryR, 1, resp)
	if err != nil || !env.Binary || resp.Records.Len() != n {
		t.Fatalf("answer of %d records, binary %v, %v", resp.Records.Len(), env.Binary, err)
	}
	frame, err := wire.AppendV2(nil, env)
	if err != nil {
		t.Fatal(err)
	}
	perRecord := float64(len(frame)) / n
	t.Logf("repair of a %d-record server: %d B, %.2f B a record", n, len(frame), perRecord)
	if perRecord > 4.6 {
		t.Errorf("repair of a %d-record server: %.2f B a record, want at most 4.6", n, perRecord)
	}

	summary := wire.SummaryMsg{Node: "peer", Servers: map[string]store.Checksum{}}
	for i := range 1000 {
		summary.Servers[fmt.Sprintf("server-%04d", i)] = store.Checksum{Count: 100 + i, XOR: uint64(i) * 0x9e3779b97f4a7c15}
	}
	conn := wire.CodecFor(wire.VersionV2)
	for _, round := range []string{"first", "next"} {
		env, err := conn.Encode(wire.TypeSummary, 1, summary)
		if err == nil {
			err = conn.Commit(&env)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s summary of %d servers with 11-byte names on a connection: %.2f B a server", round,
			len(summary.Servers), float64(len(env.Payload))/float64(len(summary.Servers)))
	}
}
