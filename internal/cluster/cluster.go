package cluster

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/metrics"
	"honestplayer/internal/repclient"
	"honestplayer/internal/wire"
)

// Node is one cluster member: its stable ID and the address its serving
// listener binds — the one address every kind of node traffic (client
// frames, fwd.* hops, anti-entropy) arrives on.
type Node struct {
	ID   string
	Addr string
}

// Config configures a node's view of its cluster. The same Nodes list (any
// order) must be given to every member — membership is static; rolling a
// new list through the cluster is a restart, not a protocol.
type Config struct {
	// Self is the local node's ID; it must appear in Nodes.
	Self string
	// Nodes is the full cluster membership, including the local node.
	Nodes []Node
	// Replicas is how many nodes hold each server's history (owner
	// included). Clamped to [1, len(Nodes)]; 0 means DefaultReplicas.
	Replicas int
	// VNodes is the virtual nodes per member (DefaultVNodes when 0).
	VNodes int
	// DialTimeout bounds dialing a peer and each forwarded round trip.
	// Zero means DefaultDialTimeout.
	DialTimeout time.Duration
	// Logger receives peer-failure logs; nil discards them.
	Logger *log.Logger
}

// DefaultReplicas is the replication factor when none is configured: the
// owner plus one replica, the minimum that makes a single node failure
// non-fatal for reads.
const DefaultReplicas = 2

// DefaultDialTimeout bounds peer dials and forwarded calls when the
// configuration does not.
const DefaultDialTimeout = 5 * time.Second

// Cluster is one node's runtime view of the cluster: the ring, one pool of
// peer connections, and the routing counters. Safe for concurrent
// use; a nil *Cluster is "not clustered" to RegisterMetrics.
type Cluster struct {
	self     Node
	nodes    map[string]Node // by ID
	ring     *Ring
	replicas int
	vnodes   int
	timeout  time.Duration
	logger   *log.Logger
	pool     *repclient.Pool

	forwarded     atomic.Uint64
	forwardErrors atomic.Uint64
}

// New validates the membership and builds the node's cluster view. No
// connections are opened: peers are dialed on first use so a cluster can
// boot in any node order.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: empty membership")
	}
	nodes := make(map[string]Node, len(cfg.Nodes))
	ids := make([]string, 0, len(cfg.Nodes))
	for _, n := range cfg.Nodes {
		if n.ID == "" || n.Addr == "" {
			return nil, fmt.Errorf("cluster: node needs id and addr (got id=%q addr=%q)", n.ID, n.Addr)
		}
		if _, dup := nodes[n.ID]; dup {
			return nil, fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		nodes[n.ID] = n
		ids = append(ids, n.ID)
	}
	self, ok := nodes[cfg.Self]
	if !ok {
		return nil, fmt.Errorf("cluster: self %q not in membership %v", cfg.Self, ids)
	}
	vnodes := cfg.VNodes
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	ring, err := NewRing(ids, vnodes)
	if err != nil {
		return nil, err
	}
	replicas := cfg.Replicas
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	if replicas > len(ids) {
		replicas = len(ids)
	}
	timeout := cfg.DialTimeout
	if timeout <= 0 {
		timeout = DefaultDialTimeout
	}
	return &Cluster{
		self:     self,
		nodes:    nodes,
		ring:     ring,
		replicas: replicas,
		vnodes:   vnodes,
		timeout:  timeout,
		logger:   cfg.Logger,
		pool:     repclient.NewPool(repclient.WithTimeout(timeout)),
	}, nil
}

// Self returns the local node's ID.
func (c *Cluster) Self() string { return c.self.ID }

// Replicas returns the effective replication factor.
func (c *Cluster) Replicas() int { return c.replicas }

// Size returns the membership size.
func (c *Cluster) Size() int { return len(c.nodes) }

// Owner returns the node ID owning server.
func (c *Cluster) Owner(server feedback.EntityID) string {
	return c.ring.Owner(string(server))
}

// ReplicaSet returns the node IDs responsible for server, owner first.
func (c *Cluster) ReplicaSet(server feedback.EntityID) []string {
	return c.ring.Replicas(string(server), c.replicas)
}

// IsOwner reports whether the local node owns server.
func (c *Cluster) IsOwner(server feedback.EntityID) bool {
	return c.Owner(server) == c.self.ID
}

// Owns reports whether the local node is in server's replica set — i.e.
// whether local state for server should exist at all. It is the predicate
// behind store scoping, eviction preference and anti-entropy scoping.
func (c *Cluster) Owns(server feedback.EntityID) bool {
	for _, id := range c.ReplicaSet(server) {
		if id == c.self.ID {
			return true
		}
	}
	return false
}

// Neighbours returns the IDs of the local node's ring successors — the
// members sharing replica sets with it, which is where anti-entropy repairs
// converge.
func (c *Cluster) Neighbours() []string {
	return c.ring.Successors(c.self.ID, 0)
}

// Peer returns the shared client connection to the given node from the
// cluster's pool, which dials and RTT-probes it on first use. Callers must
// not Close it.
func (c *Cluster) Peer(node string) (*repclient.Client, error) {
	if node == c.self.ID {
		return nil, fmt.Errorf("cluster: %s dialing itself", node)
	}
	n, ok := c.nodes[node]
	if !ok {
		return nil, fmt.Errorf("cluster: unknown node %q", node)
	}
	cl, err := c.pool.Get(n.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: peer %s (%s): %w", node, n.Addr, err)
	}
	return cl, nil
}

// Close releases all peer connections; a later Peer fails with
// repclient.ErrClosed and dials nothing.
func (c *Cluster) Close() error { return c.pool.Close() }

// callCtx bounds one forwarded call when the inbound request carried no
// deadline of its own.
func (c *Cluster) callCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if _, ok := ctx.Deadline(); ok {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.timeout)
}

// Forward runs one node-to-node call over node's pooled connection, bounded
// by the cluster's per-call deadline when ctx carries none. Every call
// counts as forwarded; transport failures count as forward errors, while a
// typed *wire.ErrorResponse (e.g. the peer holds no records) is returned to
// the caller to relay and does not. It is a package function only because
// methods cannot have type parameters.
func Forward[T any](ctx context.Context, c *Cluster, node string, call func(context.Context, *repclient.Client) (T, error)) (T, error) {
	cl, err := c.Peer(node)
	if err != nil {
		c.forwardErrors.Add(1)
		var zero T
		return zero, err
	}
	ctx, cancel := c.callCtx(ctx)
	defer cancel()
	c.forwarded.Add(1)
	resp, err := call(ctx, cl)
	c.noteErr(node, err)
	return resp, err
}

// ForwardBatch hands a batch of records to node in one frame.
func (c *Cluster) ForwardBatch(ctx context.Context, node string, b *feedback.Batch, replica bool) (wire.BatchResponse, error) {
	return Forward(ctx, c, node, func(ctx context.Context, cl *repclient.Client) (wire.BatchResponse, error) {
		return cl.ForwardBatchCtx(ctx, c.self.ID, b, replica)
	})
}

// ForwardAssessBatch asks node to assess servers from local state.
func (c *Cluster) ForwardAssessBatch(ctx context.Context, node string, servers []feedback.EntityID, threshold float64) ([]wire.AssessBatchItem, error) {
	return Forward(ctx, c, node, func(ctx context.Context, cl *repclient.Client) ([]wire.AssessBatchItem, error) {
		return cl.ForwardAssessBatchCtx(ctx, c.self.ID, servers, threshold)
	})
}

// noteErr classifies a forwarded call's outcome: transport failures bump
// ForwardErrors and are logged; typed per-request errors relayed from the
// peer are the caller's business.
func (c *Cluster) noteErr(node string, err error) {
	if err == nil {
		return
	}
	var typed *wire.ErrorResponse
	if errors.As(err, &typed) {
		return
	}
	c.forwardErrors.Add(1)
	if c.logger != nil {
		c.logger.Printf("cluster: forward to %s failed: %v", node, err)
	}
}

// RegisterMetrics declares the cluster block of reg: node ID, replication
// factor, virtual nodes per member, every member's address by ID (peers),
// the calls routed to a peer (forwarded) and those that failed at the
// transport level, not typed errors relayed back (forward_errors), and the
// RTT each peer's first dial measured. It is the node's whole view of its
// cluster, which `trustctl cluster-status` prints. For a nil *Cluster, a
// node that is not clustered, enabled is false and the counters zero.
// Registering again replaces the block.
func (c *Cluster) RegisterMetrics(reg *metrics.Registry) {
	if c == nil {
		c = &Cluster{}
	}
	reg.Gauge("cluster.enabled", func() any { return c.ring != nil })
	reg.Gauge("cluster.node", func() any { return metrics.OmitZero(c.self.ID) })
	reg.Gauge("cluster.replicas", func() any { return metrics.OmitZero(c.replicas) })
	reg.Gauge("cluster.vnodes", func() any { return metrics.OmitZero(c.vnodes) })
	reg.Gauge("cluster.peers", func() any {
		if c.ring == nil {
			return nil
		}
		addrs := make(map[string]string, len(c.nodes))
		for id, n := range c.nodes {
			addrs[id] = n.Addr
		}
		return addrs
	})
	reg.Counter("cluster.forwarded", &c.forwarded)
	reg.Counter("cluster.forward_errors", &c.forwardErrors)
	reg.Gauge("cluster.peer_rtt_ms", func() any {
		if c.ring == nil {
			return nil
		}
		rtts, ms := c.pool.RTTs(), map[string]float64{}
		for id, n := range c.nodes {
			if d, ok := rtts[n.Addr]; ok {
				ms[id] = float64(d) / 1e6
			}
		}
		if len(ms) == 0 {
			return nil
		}
		return ms
	})
}

// ParseNodes parses a `-peers` membership spec: comma-separated `id=addr`
// entries, e.g.
//
//	n1=10.0.0.1:7700,n2=10.0.0.2:7700,n3=10.0.0.3:7700
func ParseNodes(spec string) ([]Node, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("cluster: empty membership spec")
	}
	var out []Node
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("cluster: bad membership entry %q (want id=addr)", part)
		}
		if strings.Contains(addr, "~") {
			return nil, fmt.Errorf("cluster: bad membership entry %q: the id=addr~gossipaddr form is retired — anti-entropy rides the serving listener, so list id=addr only (docs/adr/0003-one-door-into-a-node.md)", part)
		}
		out = append(out, Node{ID: id, Addr: addr})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}
