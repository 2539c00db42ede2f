package cluster

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/wire"
)

func testMembership() []Node {
	return []Node{
		{ID: "a", Addr: "127.0.0.1:7700"},
		{ID: "b", Addr: "127.0.0.1:7710"},
		{ID: "c", Addr: "127.0.0.1:7720"},
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Self: "a"}); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, err := New(Config{Self: "zz", Nodes: testMembership()}); err == nil {
		t.Fatal("self outside membership accepted")
	}
	dup := append(testMembership(), Node{ID: "a", Addr: "x:1"})
	if _, err := New(Config{Self: "a", Nodes: dup}); err == nil {
		t.Fatal("duplicate node id accepted")
	}
	if _, err := New(Config{Self: "a", Nodes: []Node{{ID: "a"}}}); err == nil {
		t.Fatal("node without addr accepted")
	}
	// Replicas clamp to the membership size.
	cl, err := New(Config{Self: "a", Nodes: testMembership(), Replicas: 99})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Replicas() != 3 {
		t.Fatalf("Replicas() = %d; want clamp to 3", cl.Replicas())
	}
}

// TestClusterAgreement: every member, instantiated with its own Self, routes
// every key identically — and the Owns predicate holds on exactly the
// replica-set members.
func TestClusterAgreement(t *testing.T) {
	members := testMembership()
	views := make(map[string]*Cluster, len(members))
	for _, m := range members {
		cl, err := New(Config{Self: m.ID, Nodes: members, Replicas: 2})
		if err != nil {
			t.Fatal(err)
		}
		views[m.ID] = cl
	}
	for i := 0; i < 300; i++ {
		srv := feedback.EntityID(fmt.Sprintf("server-%03d", i))
		owner := views["a"].Owner(srv)
		set := views["a"].ReplicaSet(srv)
		if set[0] != owner {
			t.Fatalf("ReplicaSet(%q)[0] = %q; want owner %q", srv, set[0], owner)
		}
		inSet := make(map[string]bool, len(set))
		for _, id := range set {
			inSet[id] = true
		}
		for id, cl := range views {
			if got := cl.Owner(srv); got != owner {
				t.Fatalf("node %s routes %q to %q; node a routes to %q", id, srv, got, owner)
			}
			if got, want := cl.Owns(srv), inSet[id]; got != want {
				t.Fatalf("node %s Owns(%q) = %v; replica set %v", id, srv, got, set)
			}
			if got, want := cl.IsOwner(srv), id == owner; got != want {
				t.Fatalf("node %s IsOwner(%q) = %v; owner is %q", id, srv, got, owner)
			}
		}
	}
}

// TestNeighboursAreTheOtherReplicaHolders: a node's anti-entropy peers are
// its ring successors — never itself, and with one vnode-spread ring of
// three members, both others.
func TestNeighboursAreTheOtherReplicaHolders(t *testing.T) {
	cl, err := New(Config{Self: "c", Nodes: testMembership(), Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cl.Neighbours(), []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbours() = %v; want %v", got, want)
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	cl, err := New(Config{Self: "solo", Nodes: []Node{{ID: "solo", Addr: "127.0.0.1:7700"}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		srv := feedback.EntityID(fmt.Sprintf("s%d", i))
		if !cl.Owns(srv) || !cl.IsOwner(srv) {
			t.Fatalf("single-node cluster does not own %q", srv)
		}
	}
}

func TestParseNodes(t *testing.T) {
	nodes, err := ParseNodes("b=10.0.0.2:7700, a=10.0.0.1:7700 ,c=10.0.0.3:7700")
	if err != nil {
		t.Fatal(err)
	}
	want := []Node{
		{ID: "a", Addr: "10.0.0.1:7700"},
		{ID: "b", Addr: "10.0.0.2:7700"},
		{ID: "c", Addr: "10.0.0.3:7700"},
	}
	if !reflect.DeepEqual(nodes, want) {
		t.Fatalf("ParseNodes = %+v; want %+v", nodes, want)
	}
	for _, bad := range []string{"", "a", "=addr", "a=", "a=~g"} {
		if _, err := ParseNodes(bad); err == nil {
			t.Fatalf("ParseNodes(%q) accepted", bad)
		}
	}
	// The retired id=addr~gossipaddr form is refused by name, not parsed as
	// an address.
	_, err = ParseNodes("a=10.0.0.1:7700~10.0.0.1:7800,b=10.0.0.2:7700")
	if err == nil || !strings.Contains(err.Error(), "retired") || !strings.Contains(err.Error(), "0003") {
		t.Fatalf("ParseNodes with a ~gossipaddr: err = %v; want the retirement notice", err)
	}
}

func part(node string, records int, trust float64, suspicious, accept bool) wire.NodeAssessment {
	return wire.NodeAssessment{
		Node:    node,
		Records: records,
		AssessResponse: wire.AssessResponse{
			Assessment: core.Assessment{
				Server: "s1", Trust: trust, TrustLow: trust - 0.05, TrustHigh: trust + 0.05,
				Suspicious: suspicious, TrustFunc: "average",
			},
			Accept: accept,
		},
	}
}

func TestMergeEmpty(t *testing.T) {
	if _, err := Merge(0.9, nil); err == nil {
		t.Fatal("merge of zero parts accepted")
	}
}

// TestMergeIdentical: converged replicas merge to the first part verbatim —
// the bit-identical guarantee the e2e differential test relies on.
func TestMergeIdentical(t *testing.T) {
	parts := []wire.NodeAssessment{
		part("b", 100, 0.95, false, true),
		part("a", 100, 0.95, false, true),
	}
	got, err := Merge(0.9, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Merged {
		t.Fatal("Merged marker missing")
	}
	if !reflect.DeepEqual(got.MergedFrom, []string{"a", "b"}) {
		t.Fatalf("MergedFrom = %v; want sorted [a b]", got.MergedFrom)
	}
	want := parts[0].AssessResponse
	want.Merged, want.MergedFrom = true, got.MergedFrom
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("identical merge not verbatim:\n got %+v\nwant %+v", got, want)
	}
}

// TestMergeWeighted: divergent views average trust by record count, so the
// node that saw 9x the history dominates the merged value.
func TestMergeWeighted(t *testing.T) {
	parts := []wire.NodeAssessment{
		part("a", 900, 0.90, false, true),
		part("b", 100, 0.50, false, false),
	}
	got, err := Merge(0.8, parts)
	if err != nil {
		t.Fatal(err)
	}
	wantTrust := (900*0.90 + 100*0.50) / 1000
	if math.Abs(got.Assessment.Trust-wantTrust) > 1e-12 {
		t.Fatalf("merged trust = %v; want %v", got.Assessment.Trust, wantTrust)
	}
	if !got.Accept {
		t.Fatalf("merged trust %v >= threshold 0.8 but Accept=false", got.Assessment.Trust)
	}
	if strict, err := Merge(0.99, parts); err != nil || strict.Accept {
		t.Fatalf("merged trust %v under threshold 0.99 but Accept=true (err=%v)", wantTrust, err)
	}
}

// TestMergeSuspicionIsSticky: one suspicious view makes the merged view
// suspicious and rejected regardless of the trust average — partitioned
// replicas must not average away a manipulation pattern.
func TestMergeSuspicionIsSticky(t *testing.T) {
	parts := []wire.NodeAssessment{
		part("a", 10000, 0.99, false, true),
		part("b", 10, 0.0, true, false),
	}
	got, err := Merge(0.5, parts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Assessment.Suspicious {
		t.Fatal("suspicion averaged away by the larger clean view")
	}
	if got.Accept {
		t.Fatal("suspicious merge accepted")
	}
	// The verdict carrier prefers the suspicious view so the response
	// explains the rejection.
	if got.Assessment.Server != "s1" {
		t.Fatalf("verdict carrier lost the assessment payload: %+v", got.Assessment)
	}
}

// TestMergeZeroRecordParts: empty replicas appear in MergedFrom but carry no
// weight.
func TestMergeZeroRecordParts(t *testing.T) {
	parts := []wire.NodeAssessment{
		part("a", 500, 0.9, false, true),
		part("b", 0, 0.0, false, false),
	}
	got, err := Merge(0.8, parts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Assessment.Trust-0.9) > 1e-12 {
		t.Fatalf("zero-record part changed the trust: %v", got.Assessment.Trust)
	}
	if !reflect.DeepEqual(got.MergedFrom, []string{"a", "b"}) {
		t.Fatalf("MergedFrom = %v; want [a b]", got.MergedFrom)
	}
}
