package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"honestplayer/internal/feedback"
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
