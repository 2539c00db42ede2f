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

// TestGossipExchangeSameOverEitherFraming: the anti-entropy pair is served
// by the ordinary pipeline, so a bridged client and a binary one get the same
// stale list and the same delta, an unscoped digest is a bad request on
// both, and the exchange shows up in the per-type metrics.
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
	// The caller holds s1's first five records and s2 exactly.
	have := []uint64{}
	for _, f := range held[:5] {
		have = append(have, uint64(store.HashOf(f)))
	}
	summary := wire.SummaryMsg{Node: "peer", Servers: map[string]store.Checksum{
		"s1": {Count: 5, XOR: 1},
		"s2": srv.Summary()["s2"],
	}}
	digest := wire.DigestMsg{Node: "peer", Servers: []string{"s1"}, Hashes: have}

	type answer struct {
		Stale []string
		Delta []feedback.Feedback
		Code  string
	}
	var answers []answer
	eachFraming(t, func(t *testing.T, connect func(*Server) *repclient.Client) {
		c := connect(srv)
		ctx := context.Background()
		sr, err := c.GossipSummaryCtx(ctx, summary)
		if err != nil {
			t.Fatal(err)
		}
		delta, err := c.GossipDigestCtx(ctx, digest)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.GossipDigestCtx(ctx, wire.DigestMsg{Node: "legacy"})
		answers = append(answers, answer{Stale: sr.Stale, Delta: delta.Records, Code: codeOf(t, err)})
	})
	want := answer{Stale: []string{"s1"}, Delta: held[5:12], Code: wire.CodeBadRequest}
	for i, got := range answers {
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("framing %d answered\n %+v\nwant\n %+v", i, got, want)
		}
	}
	pt, _ := srv.Metrics().Value("per_type").(service.Snapshot)
	if s, d := pt[string(wire.TypeSummary)], pt[string(wire.TypeDigest)]; s.Requests != 2 || d.Requests != 4 || d.Errors != 2 {
		t.Fatalf("per_type rows: summary %+v digest %+v", s, d)
	}
}

// TestGossipDigestDeadline: a gossip.digest whose handler outlives
// RequestTimeout — here stuck faulting an evicted server in — is answered
// deadline_exceeded like any other request, and the connection stays usable.
func TestGossipDigestDeadline(t *testing.T) { eachFraming(t, testGossipDigestDeadline) }

func testGossipDigestDeadline(t *testing.T, connect func(*Server) *repclient.Client) {
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
	_, err = c.GossipDigestCtx(context.Background(), wire.DigestMsg{Node: "peer", Servers: []string{"cold"}})
	if code := codeOf(t, err); code != wire.CodeDeadlineExceeded {
		t.Fatalf("stalled digest answered %q, want %s", code, wire.CodeDeadlineExceeded)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline reply took %s", elapsed)
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after deadline error: %v", err)
	}
	if d := srv.Metrics().Value("per_type").(service.Snapshot)[string(wire.TypeDigest)]; d.Requests != 1 || d.Errors != 1 {
		t.Fatalf("digest metrics = %+v", d)
	}
}
