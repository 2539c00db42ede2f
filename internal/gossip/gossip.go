// Package gossip implements the decentralised feedback-dissemination
// option the paper mentions for P2P systems (§2, citing P-Grid-style data
// organisation and gossip aggregation): nodes periodically reconcile their
// feedback stores with random peers via anti-entropy, so every node
// eventually holds every record and can run two-phase trust assessment
// locally.
//
// A round is one pull between reputation nodes, one round trip (ADR 0022).
// The initiator — a Reconciler, an ordinary client of its peers' serving
// listeners — sends its per-server checksums (gossip.summary); the peer
// answers with the servers whose record sets differ and whose replica sets
// hold the initiator, and with its whole histories of as many of them as
// one record batch holds (gossip.summary.resp). The initiator stores the
// batch through its own node's write path, which drops the records it holds
// already; a server the batch left out stays stale for a later round. The
// initiator learns, the responder doesn't — convergence comes from every
// node initiating rounds. Records are content-addressed, so the exchange is
// idempotent and commutative: histories converge to the same time-ordered
// sequence on every node regardless of delivery order.
//
// The responder half is a request handler in internal/repserver.
package gossip

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"honestplayer/internal/cluster"
	"honestplayer/internal/metrics"
	"honestplayer/internal/repclient"
	"honestplayer/internal/stats"
	"honestplayer/internal/store"
	"honestplayer/internal/wire"
)

// Node is the local reputation node a Reconciler repairs, reached in
// process; *repserver.Server implements it.
type Node interface {
	// Summary returns the node's per-server checksums, scoped to its replica
	// sets when clustered. The map is shared: read-only.
	Summary() map[string]store.Checksum
	// SeedBatch stores a record batch through the node's one write path,
	// returning how many records were new. A rejected record is reported as
	// the error without discarding the rest.
	SeedBatch(rb wire.RecordBatch) (int, error)
	// Cluster returns the node's cluster view; nil on a single node.
	Cluster() *cluster.Cluster
}

// Config parameterises a Reconciler.
type Config struct {
	// Name identifies the node in summaries and logs; on a cluster it is
	// the node's ID, which its peers look for in a server's replica set.
	Name string
	// Node is the local node whose store the reconciler repairs.
	Node Node
	// Peers are the serving addresses of the nodes to reconcile with; every
	// record then converges to every node. A clustered Node ignores them:
	// it reconciles with its ring neighbours over the cluster's pooled
	// connections and is sent only servers in its own replica sets, so
	// partitioned ownership is preserved under repair.
	Peers []string
	// Interval between background rounds; zero means 200ms.
	Interval time.Duration
	// Seed drives peer selection.
	Seed uint64
	// Logger receives round errors; nil disables logging.
	Logger *log.Logger
}

// Reconciler runs anti-entropy rounds on behalf of one node. Create with
// New, start the background loop with Start (or drive rounds with
// RoundOnce), and stop with Close.
type Reconciler struct {
	cfg Config
	// baseCtx is cancelled by Close so an in-flight round aborts instead of
	// riding out its round-trip deadlines.
	baseCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	mu    sync.Mutex
	rng   *stats.RNG
	peers []string
	// pool holds one connection per unclustered peer across rounds; a
	// clustered node's rounds ride the cluster's pool.
	pool *repclient.Pool

	rounds, received, inSync, roundErrors atomic.Uint64
}

// New creates a reconciler for cfg.Node. It opens no connection and starts
// no goroutine.
func New(cfg Config) (*Reconciler, error) {
	if cfg.Name == "" {
		return nil, errors.New("gossip: node needs a name")
	}
	if cfg.Node == nil {
		return nil, errors.New("gossip: nil node")
	}
	if cfg.Interval == 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Reconciler{
		cfg:     cfg,
		baseCtx: ctx,
		cancel:  cancel,
		rng:     stats.NewRNG(cfg.Seed),
		peers:   append([]string(nil), cfg.Peers...),
		pool:    repclient.NewPool(),
	}, nil
}

// Rounds returns the number of completed rounds.
func (n *Reconciler) Rounds() uint64 { return n.rounds.Load() }

// Received returns the number of records learned from peers.
func (n *Reconciler) Received() uint64 { return n.received.Load() }

// InSyncRounds returns the number of rounds in which nothing differed —
// the cheap steady-state case.
func (n *Reconciler) InSyncRounds() uint64 { return n.inSync.Load() }

// RegisterMetrics declares the reconciler's block of reg: its completed
// rounds, the records they pulled, the rounds that found nothing stale and
// the background rounds that failed — a repair that never completes shows
// there, not only in the log.
func (n *Reconciler) RegisterMetrics(reg *metrics.Registry) {
	reg.Counter("gossip.rounds", &n.rounds)
	reg.Counter("gossip.received", &n.received)
	reg.Counter("gossip.in_sync_rounds", &n.inSync)
	reg.Counter("gossip.round_errors", &n.roundErrors)
}

// AddPeer registers another peer's serving address.
func (n *Reconciler) AddPeer(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers = append(n.peers, addr)
}

// Start launches the periodic anti-entropy loop.
func (n *Reconciler) Start() {
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		ticker := time.NewTicker(n.cfg.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-n.baseCtx.Done():
				return
			case <-ticker.C:
				if err := n.RoundOnce(); err != nil && n.baseCtx.Err() == nil {
					n.roundErrors.Add(1)
					if n.cfg.Logger != nil {
						n.cfg.Logger.Printf("%s: gossip round: %v", n.cfg.Name, err)
					}
				}
			}
		}
	}()
}

// Close aborts any in-flight round, waits for the loop to exit and closes
// the connections to unclustered peers. It is idempotent.
func (n *Reconciler) Close() error {
	n.cancel()
	n.wg.Wait()
	return n.pool.Close()
}

// RoundOnce performs one anti-entropy round trip with a random peer: it
// sends the node's per-server checksums and stores the records the peer
// answers with. It is exported so tests and tools can drive convergence
// deterministically.
func (n *Reconciler) RoundOnce() error { return n.RoundOnceCtx(n.baseCtx) }

// RoundOnceCtx is RoundOnce bounded by ctx: its deadline bounds the round
// trip, and cancellation (e.g. Close) aborts a round mid-exchange.
func (n *Reconciler) RoundOnceCtx(ctx context.Context) error {
	cl := n.cfg.Node.Cluster()
	n.mu.Lock()
	peers := n.peers
	if cl != nil {
		peers = cl.Neighbours()
	}
	if len(peers) == 0 {
		n.mu.Unlock()
		return nil
	}
	peer := peers[n.rng.Intn(len(peers))]
	n.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	summary := wire.SummaryMsg{Node: n.cfg.Name, Servers: n.cfg.Node.Summary()}
	call := func(ctx context.Context, pc *repclient.Client) (wire.SummaryResp, error) {
		return pc.GossipSummaryCtx(ctx, summary)
	}
	var sr wire.SummaryResp
	var err error
	if cl != nil {
		// Against the cluster's pooled connection to the peer node, counted
		// with its forwards.
		sr, err = cluster.Forward(ctx, cl, peer, call)
	} else {
		var pc *repclient.Client
		if pc, err = n.pool.Get(peer); err == nil {
			sr, err = call(ctx, pc)
		}
	}
	if err != nil {
		return fmt.Errorf("summary exchange with %s: %w", peer, err)
	}
	if len(sr.Stale) == 0 {
		n.inSync.Add(1)
	} else {
		added, err := n.cfg.Node.SeedBatch(sr.Records)
		n.received.Add(uint64(added))
		if err != nil {
			return fmt.Errorf("store records from %s: %w", peer, err)
		}
	}
	n.rounds.Add(1)
	return nil
}
