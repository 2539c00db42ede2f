// Package gossip implements the decentralised feedback-dissemination
// option the paper mentions for P2P systems (§2, citing P-Grid-style data
// organisation and gossip aggregation): nodes periodically reconcile their
// feedback stores with random peers via anti-entropy, so every node
// eventually holds every record and can run two-phase trust assessment
// locally.
//
// Reconciliation is a two-phase pull between reputation nodes. The
// initiator — a Reconciler, an ordinary client of its peers' serving
// listeners — first sends per-server checksums (gossip.summary); the peer
// answers with the servers whose record sets differ (gossip.summary.resp).
// Only for those does the initiator send the full hash digest
// (gossip.digest, scoped), receiving the records it is missing
// (gossip.delta), which it stores through its own node's write path. After
// convergence a round costs one summary round trip. The initiator learns,
// the responder doesn't — convergence comes from every node initiating
// rounds. Records are content-addressed, so the exchange is idempotent and
// commutative: histories converge to the same time-ordered sequence on
// every node regardless of delivery order.
//
// The responder half is two request handlers in internal/repserver.
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
	"honestplayer/internal/feedback"
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
	// Hashes returns the content hashes of the records the node holds for
	// servers, faulting evicted servers in.
	Hashes(ctx context.Context, servers []string) ([]uint64, error)
	// Seed stores records through the node's one write path, returning how
	// many were new. A rejected record is reported as the error without
	// discarding the rest.
	Seed(recs []feedback.Feedback) (int, error)
	// Cluster returns the node's cluster view; nil on a single node.
	Cluster() *cluster.Cluster
}

// Config parameterises a Reconciler.
type Config struct {
	// Name identifies the node in digests and logs.
	Name string
	// Node is the local node whose store the reconciler repairs.
	Node Node
	// Peers are the serving addresses of the nodes to reconcile with; every
	// record then converges to every node. A clustered Node ignores them:
	// it reconciles with its ring neighbours over the cluster's pooled
	// connections and pulls only servers in its own replica sets, so
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

	rounds   atomic.Uint64
	received atomic.Uint64
	inSync   atomic.Uint64
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
	}, nil
}

// Rounds returns the number of completed rounds.
func (n *Reconciler) Rounds() uint64 { return n.rounds.Load() }

// Received returns the number of records learned from peers.
func (n *Reconciler) Received() uint64 { return n.received.Load() }

// InSyncRounds returns the number of rounds that ended after the summary
// exchange because nothing differed — the cheap steady-state case.
func (n *Reconciler) InSyncRounds() uint64 { return n.inSync.Load() }

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
				err := n.RoundOnce()
				if err != nil && n.baseCtx.Err() == nil && n.cfg.Logger != nil {
					n.cfg.Logger.Printf("%s: gossip round: %v", n.cfg.Name, err)
				}
			}
		}
	}()
}

// Close aborts any in-flight round and waits for the loop to exit. It is
// idempotent.
func (n *Reconciler) Close() error {
	n.cancel()
	n.wg.Wait()
	return nil
}

// exchange runs one call of a round: against the cluster's pooled
// connection to the peer node, counted with its forwards, when cl is set,
// and against the round's own connection otherwise.
func exchange[T any](ctx context.Context, cl *cluster.Cluster, peer string, own *repclient.Client, call func(context.Context, *repclient.Client) (T, error)) (T, error) {
	if cl != nil {
		return cluster.Forward(ctx, cl, peer, call)
	}
	return call(ctx, own)
}

// RoundOnce performs one anti-entropy exchange with a random peer. It
// first exchanges per-server checksum summaries; only for servers whose
// record sets differ does it send the (much larger) hash digest and pull
// the missing records. After convergence a round therefore costs one
// summary round trip. It is exported so tests and tools can drive
// convergence deterministically.
func (n *Reconciler) RoundOnce() error { return n.RoundOnceCtx(n.baseCtx) }

// RoundOnceCtx is RoundOnce bounded by ctx: its deadline bounds each round
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
	var own *repclient.Client
	if cl == nil {
		var err error
		if own, err = repclient.Dial(peer); err != nil {
			return err
		}
		defer func() { _ = own.Close() }()
	}

	// Phase 1: summary exchange.
	summary := wire.SummaryMsg{Node: n.cfg.Name, Servers: n.cfg.Node.Summary()}
	sr, err := exchange(ctx, cl, peer, own, func(ctx context.Context, pc *repclient.Client) (wire.SummaryResp, error) {
		return pc.GossipSummaryCtx(ctx, summary)
	})
	if err != nil {
		return fmt.Errorf("summary exchange with %s: %w", peer, err)
	}
	if cl != nil {
		// The peer reports every server whose record set differs from our
		// (owned-only) summary — including servers we are not responsible
		// for. Pull only our own.
		kept := sr.Stale[:0]
		for _, srv := range sr.Stale {
			if cl.Owns(feedback.EntityID(srv)) {
				kept = append(kept, srv)
			}
		}
		sr.Stale = kept
	}
	if len(sr.Stale) == 0 {
		n.inSync.Add(1)
		n.rounds.Add(1)
		return nil
	}

	// Phase 2: scoped digest for the out-of-sync servers.
	hashes, err := n.cfg.Node.Hashes(ctx, sr.Stale)
	if err != nil {
		return fmt.Errorf("digest for %s: %w", peer, err)
	}
	digest := wire.DigestMsg{Node: n.cfg.Name, Servers: sr.Stale, Hashes: hashes}
	delta, err := exchange(ctx, cl, peer, own, func(ctx context.Context, pc *repclient.Client) (wire.DeltaMsg, error) {
		return pc.GossipDigestCtx(ctx, digest)
	})
	if err != nil {
		return fmt.Errorf("digest exchange with %s: %w", peer, err)
	}
	added, err := n.cfg.Node.Seed(delta.Records)
	n.received.Add(uint64(added))
	if err != nil {
		return fmt.Errorf("store delta from %s: %w", peer, err)
	}
	n.rounds.Add(1)
	return nil
}
