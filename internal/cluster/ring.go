// Package cluster partitions server ownership across a static membership
// list with a consistent-hash ring, so a deployment of N trustd nodes
// shares the feedback histories instead of every node holding all of them.
//
// Each server ID hashes onto the ring; the first node encountered clockwise
// owns it, and the next R-1 distinct nodes are its replicas. Every node
// builds the identical ring from the identical membership list, so routing
// needs no coordination: a node receiving a request for a server it does
// not hold forwards it to the owner (internal/repserver), merges per-node
// assessments for reads (Merge), and replicates accepted writes to the
// replica set. Virtual nodes smooth the distribution; adding or removing a
// member moves only the keys adjacent to its points (~K/N of them), which
// is the property that makes membership changes cheap at scale.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVNodes is the number of virtual points each node contributes to
// the ring. More points smooth the key distribution at the cost of a larger
// (still tiny) sorted array; 64 keeps the max/min node load within ~2x for
// small clusters, which is plenty for ownership routing.
const DefaultVNodes = 64

// point is one virtual node position on the ring.
type point struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is an immutable consistent-hash ring over a set of node IDs. Two
// rings built from the same node set (in any order) and vnode count are
// identical, so every cluster member routes every key the same way.
type Ring struct {
	nodes  []string // sorted, unique
	points []point  // sorted by hash
}

// NewRing builds a ring over the given node IDs with vnodes virtual points
// per node (DefaultVNodes when vnodes <= 0). Node order does not matter;
// duplicates and empty IDs are rejected.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), nodes...)
	sort.Strings(sorted)
	for i, n := range sorted {
		if n == "" {
			return nil, fmt.Errorf("cluster: empty node id")
		}
		if i > 0 && sorted[i-1] == n {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n)
		}
	}
	r := &Ring{nodes: sorted, points: make([]point, 0, len(sorted)*vnodes)}
	for ni, n := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{hash: pointHash(n, v), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A hash collision between two nodes' points must break the same way
		// on every member: fall back to node order.
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// mix64 is a full-avalanche finalizer (the murmur3 fmix64 constants). Raw
// FNV-1a is weak exactly where a ring needs strength: inputs differing only
// in trailing bytes — sequential server IDs like "server-0042", or a node's
// vnode counter — perturb only the low ~50 bits, clumping whole ID ranges
// (and each node's every vnode) into one tiny arc. Mixing the digest spreads
// those deltas over all 64 bits, which is what actually balances ownership.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// pointHash positions one virtual node on the ring.
func pointHash(node string, vnode int) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(node))
	_, _ = h.Write([]byte{0, byte(vnode), byte(vnode >> 8), byte(vnode >> 16), byte(vnode >> 24)})
	return mix64(h.Sum64())
}

// keyHash positions a key (a server ID) on the ring. It is deliberately a
// different derivation than pointHash (no vnode suffix) so keys and points
// cannot systematically collide.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(key))
	return mix64(h.Sum64())
}

// ownerIndex returns the index into r.points of the first point at or after
// the key's hash, wrapping past the highest point back to the first.
func (r *Ring) ownerIndex(key string) int {
	kh := keyHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the node owning key: the first node clockwise from the
// key's ring position.
func (r *Ring) Owner(key string) string {
	return r.nodes[r.points[r.ownerIndex(key)].node]
}

// Replicas returns the n distinct nodes responsible for key, owner first,
// walking clockwise from the key's position. Fewer than n nodes on the ring
// returns them all.
func (r *Ring) Replicas(key string, n int) []string {
	if n < 1 {
		n = 1
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[int]struct{}, n)
	start := r.ownerIndex(key)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, r.nodes[p.node])
	}
	return out
}

// Successors returns the distinct nodes that immediately follow any of
// node's points on the ring — the members that hold replicas of keys node
// owns, and therefore its natural gossip partners. The result excludes node
// itself, is sorted, and contains at most max entries (every other node
// when max <= 0).
func (r *Ring) Successors(node string, max int) []string {
	ni := sort.SearchStrings(r.nodes, node)
	if ni == len(r.nodes) || r.nodes[ni] != node {
		return nil
	}
	succ := make(map[int]struct{})
	for i, p := range r.points {
		if p.node != ni {
			continue
		}
		// Walk forward to the next point of a different node.
		for j := 1; j < len(r.points); j++ {
			q := r.points[(i+j)%len(r.points)]
			if q.node != ni {
				succ[q.node] = struct{}{}
				break
			}
		}
	}
	out := make([]string, 0, len(succ))
	for idx := range succ {
		out = append(out, r.nodes[idx])
	}
	sort.Strings(out)
	if max > 0 && len(out) > max {
		out = out[:max]
	}
	return out
}
