package gossip

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/repclient"
	"honestplayer/internal/repserver"
	"honestplayer/internal/service"
	"honestplayer/internal/stats"
	"honestplayer/internal/store"
	"honestplayer/internal/trust"
)

func rec(s, c feedback.EntityID, good bool, at int64) feedback.Feedback {
	r := feedback.Negative
	if good {
		r = feedback.Positive
	}
	return feedback.Feedback{Time: time.Unix(at, 0).UTC(), Server: s, Client: c, Rating: r}
}

// node is a P2P peer as deployed: a serving reputation node plus the
// reconciler repairing it.
type node struct {
	*Reconciler
	srv *repserver.Server
}

func (n node) Addr() string        { return n.srv.Addr() }
func (n node) Store() *store.Store { return n.srv.Store() }

// seed stores records through the node's own write path.
func (n node) seed(t *testing.T, recs ...feedback.Feedback) {
	t.Helper()
	if _, err := n.srv.Seed(recs); err != nil {
		t.Fatal(err)
	}
}

// startNode starts a serving node (scfg.Assessor is filled in) and creates
// its reconciler; only RoundOnce or Start make it gossip.
func startNode(t *testing.T, name string, scfg repserver.Config, gcfg Config) node {
	t.Helper()
	tp, err := core.NewTwoPhase(nil, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	scfg.Assessor = tp
	srv, err := repserver.New("127.0.0.1:0", scfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	gcfg.Name, gcfg.Node = name, srv
	r, err := New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := r.Close(); err != nil {
			t.Errorf("close reconciler %s: %v", name, err)
		}
		if err := srv.Close(); err != nil {
			t.Errorf("close server %s: %v", name, err)
		}
	})
	return node{Reconciler: r, srv: srv}
}

func newNode(t *testing.T, name string) node {
	return startNode(t, name, repserver.Config{}, Config{Seed: 1})
}

func TestNewValidation(t *testing.T) {
	n := newNode(t, "a")
	if _, err := New(Config{Node: n.srv}); err == nil {
		t.Fatal("missing name must fail")
	}
	if _, err := New(Config{Name: "x"}); err == nil {
		t.Fatal("missing node must fail")
	}
}

func TestTwoNodeConvergenceManualRounds(t *testing.T) {
	a := newNode(t, "a")
	b := newNode(t, "b")
	a.AddPeer(b.Addr())
	b.AddPeer(a.Addr())
	// Only the servers run; rounds are driven manually for determinism.
	for i := 0; i < 20; i++ {
		a.seed(t, rec("srv", "ca", i%5 != 0, int64(i)))
	}
	for i := 20; i < 40; i++ {
		b.seed(t, rec("srv", "cb", i%4 != 0, int64(i)))
	}

	// a pulls from b, then b pulls from a.
	if err := a.RoundOnce(); err != nil {
		t.Fatal(err)
	}
	if err := b.RoundOnce(); err != nil {
		t.Fatal(err)
	}
	if a.Store().Len() != 40 || b.Store().Len() != 40 {
		t.Fatalf("stores did not converge: a=%d b=%d", a.Store().Len(), b.Store().Len())
	}
	// Time-ordered histories are identical on both nodes.
	ra, rb := a.Store().Records("srv"), b.Store().Records("srv")
	for i := range ra {
		if store.HashOf(ra[i]) != store.HashOf(rb[i]) {
			t.Fatalf("record %d differs between nodes", i)
		}
	}
	if a.Received() == 0 || b.Received() == 0 {
		t.Fatal("received counters did not move")
	}
	// The exchange was served by the ordinary request pipeline, one round
	// trip for a's one round, beside the ping that timed a's new connection.
	if pt, _ := b.srv.Metrics().Value("per_type").(service.Snapshot); pt["gossip.summary"].Requests != 1 ||
		pt["ping"].Requests != 1 || len(pt) != 2 {
		t.Fatalf("responder metrics of the exchange: %+v", pt)
	}
}

func TestThreeNodeConvergenceBackground(t *testing.T) {
	a := newNode(t, "a")
	b := newNode(t, "b")
	c := newNode(t, "c")
	// Chain topology: a <-> b <-> c; records must cross b to reach c.
	a.AddPeer(b.Addr())
	b.AddPeer(a.Addr())
	b.AddPeer(c.Addr())
	c.AddPeer(b.Addr())
	a.Start()
	b.Start()
	c.Start()

	rng := stats.NewRNG(7)
	for i := 0; i < 30; i++ {
		a.seed(t, rec("srv", "ca", rng.Bernoulli(0.9), int64(i)))
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if c.Store().Len() == 30 && b.Store().Len() == 30 {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("no convergence: a=%d b=%d c=%d", a.Store().Len(), b.Store().Len(), c.Store().Len())
}

func TestRoundOnceNoPeers(t *testing.T) {
	a := newNode(t, "a")
	if err := a.RoundOnce(); err != nil {
		t.Fatalf("round with no peers: %v", err)
	}
}

func TestRoundOnceDeadPeer(t *testing.T) {
	a := newNode(t, "a")
	// Reserve an address then close it so the dial fails fast.
	dead := newNode(t, "dead")
	addr := dead.Addr()
	if err := dead.srv.Close(); err != nil {
		t.Fatal(err)
	}
	a.AddPeer(addr)
	if err := a.RoundOnce(); err == nil {
		t.Fatal("round against dead peer must fail")
	}
	// The node remains usable.
	if a.Store().Len() != 0 {
		t.Fatal("store corrupted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	n := newNode(t, "x")
	n.Start()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := n.RoundOnce(); err != nil {
		t.Fatalf("round with no peers after close: %v", err)
	}
}

func TestBackgroundLoopGossips(t *testing.T) {
	a := startNode(t, "a", repserver.Config{}, Config{Interval: 20 * time.Millisecond, Seed: 3})
	b := newNode(t, "b")
	a.AddPeer(b.Addr())
	a.Start()
	b.seed(t, rec("srv", "c", true, 1))
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a.Store().Len() == 1 && a.Rounds() > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("background gossip never delivered the record (rounds=%d)", a.Rounds())
}

func TestSummaryShortCircuitWhenInSync(t *testing.T) {
	a := newNode(t, "a")
	b := newNode(t, "b")
	b.AddPeer(a.Addr())
	for i := 0; i < 10; i++ {
		a.seed(t, rec("srv", "c", i%3 != 0, int64(i)))
	}
	// First round transfers; second round is summary-only.
	if err := b.RoundOnce(); err != nil {
		t.Fatal(err)
	}
	if b.Store().Len() != 10 {
		t.Fatalf("not converged: %d", b.Store().Len())
	}
	if b.InSyncRounds() != 0 {
		t.Fatalf("first round marked in-sync")
	}
	if err := b.RoundOnce(); err != nil {
		t.Fatal(err)
	}
	if b.InSyncRounds() != 1 {
		t.Fatalf("in-sync rounds = %d, want 1", b.InSyncRounds())
	}
	if b.Store().Len() != 10 {
		t.Fatalf("in-sync round changed the store: %d", b.Store().Len())
	}
	if got := a.srv.Metrics().Value("per_type").(service.Snapshot)["gossip.summary"].Requests; got != 2 {
		t.Fatalf("responder served %d summaries over two rounds, want one round trip each", got)
	}
}

// TestRoundOnceReusesItsConnection: an unclustered reconciler opens one
// connection to a peer however many rounds it runs, and Close closes it.
func TestRoundOnceReusesItsConnection(t *testing.T) {
	a := newNode(t, "a")
	b := newNode(t, "b")
	a.AddPeer(b.Addr())
	b.seed(t, rec("srv", "c", true, 1))
	for round := 1; round <= 5; round++ {
		if err := a.RoundOnce(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if a.Store().Len() != 1 || a.InSyncRounds() != 4 {
		t.Fatalf("after five rounds: %d records, %d in-sync rounds", a.Store().Len(), a.InSyncRounds())
	}
	if got := b.srv.Metrics().Value("connections"); got != uint64(1) {
		t.Fatalf("peer accepted %v connections over five rounds, want 1", got)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.srv.Metrics().Value("open_connections") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("peer holds %v open connections after the reconciler closed", b.srv.Metrics().Value("open_connections"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestScopedDigestOnlyTouchesStaleServers(t *testing.T) {
	a := newNode(t, "a")
	b := newNode(t, "b")
	a.AddPeer(b.Addr())
	// Both share srv1 exactly; b additionally has srv2.
	shared := []feedback.Feedback{rec("srv1", "c", true, 1), rec("srv1", "d", false, 2)}
	a.seed(t, shared...)
	b.seed(t, shared...)
	b.seed(t, rec("srv2", "e", true, 3))
	if err := a.RoundOnce(); err != nil {
		t.Fatal(err)
	}
	if a.Store().Len() != 3 {
		t.Fatalf("a has %d records, want 3", a.Store().Len())
	}
	// Only srv2's record crossed the wire.
	if a.Received() != 1 {
		t.Fatalf("received = %d, want 1", a.Received())
	}
}

// TestRoundOnceRepairsAStalePeer: a peer that missed 60,000 records over 100
// servers converges through RoundOnce. Each round's answer holds as many
// whole histories as fit one bound, so every round succeeds and moves some
// servers, and the rest stay stale for the next; one answer of every
// missing record would be above the frame bound, and so was the old
// exchange's delta, on every round.
func TestRoundOnceRepairsAStalePeer(t *testing.T) {
	a := newNode(t, "a")
	b := newNode(t, "b")
	b.AddPeer(a.Addr())
	const servers, each = 100, 600
	recs := make([]feedback.Feedback, 0, servers*each)
	for s := range servers {
		for i := range each {
			recs = append(recs, rec(feedback.EntityID(fmt.Sprintf("server-%03d", s)),
				feedback.EntityID(fmt.Sprintf("client-%d", (s+i)%37)), i%9 != 0, int64(1_700_000_000+i*60)))
		}
	}
	a.seed(t, recs...)
	for round := 1; b.Store().Len() < len(recs); round++ {
		if round > 10 {
			t.Fatalf("%d of %d records after %d rounds", b.Store().Len(), len(recs), round-1)
		}
		if err := b.RoundOnce(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	t.Logf("%d records over %d servers in %d rounds", len(recs), servers, b.Rounds())
	if err := b.RoundOnce(); err != nil || b.InSyncRounds() != 1 || b.Received() != uint64(len(recs)) {
		t.Fatalf("after convergence: %v, in-sync rounds %d, received %d", err, b.InSyncRounds(), b.Received())
	}
}

// durableNode starts a node on a ledger under dir, with the resident-state
// lifecycle on when budget is positive.
func durableNode(t *testing.T, name, dir string, budget int64) (node, *ledger.PersistentStore) {
	t.Helper()
	ps, err := ledger.OpenStoreOptions(context.Background(), dir, ledger.Options{Shards: 2, MemBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	n := startNode(t, name, repserver.Config{Store: ps.Store(), Recorder: ps}, Config{Seed: 1})
	t.Cleanup(func() { _ = ps.Close() }) // after the node's own cleanup
	return n, ps
}

// TestAntiEntropyWriteIsDurable: a record a reconcile round pulls into a
// ledger-backed node is acknowledged under the same contract as a submitted
// one — it is in the ledger, so it survives close + reopen. (The repaired
// record used to be written to the store behind the ledger's back.)
func TestAntiEntropyWriteIsDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	a, ps := durableNode(t, "a", dir, 0)
	b := newNode(t, "b")
	a.AddPeer(b.Addr())
	a.seed(t, rec("srv", "own", true, 1))
	b.seed(t, rec("srv", "own", true, 1), rec("srv", "pulled", false, 2))

	if err := a.RoundOnce(); err != nil {
		t.Fatal(err)
	}
	if a.Received() != 1 || a.Store().Len() != 2 {
		t.Fatalf("round pulled %d records into a store of %d, want 1 into 2", a.Received(), a.Store().Len())
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := ledger.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Store().Len(); got != 2 {
		t.Fatalf("%d records after reopen, want 2: the pulled record never reached the ledger", got)
	}
}

// TestAntiEntropyWriteSurvivesEviction: under a memory budget a pulled
// record must be rebuildable like any other. Pulled into a resident server
// it used to bypass the tail index, so the next eviction minted a stub the
// ledger could not reproduce and every later read failed its fault-in;
// pulled for a server evicted on the initiator it was skipped outright and
// pulled again every round.
func TestAntiEntropyWriteSurvivesEviction(t *testing.T) {
	a, ps := durableNode(t, "a", filepath.Join(t.TempDir(), "led"), 1<<40)
	b := newNode(t, "b")
	a.AddPeer(b.Addr())
	var base []feedback.Feedback
	for i := 0; i < 30; i++ {
		base = append(base, rec("sa", feedback.EntityID("c"+string(rune('a'+i%7))), i%4 != 0, int64(i+1)))
	}
	a.seed(t, base...)
	b.seed(t, base...)
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}
	client, err := repclient.Dial(a.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	assessThroughRPC := func(want int) {
		t.Helper()
		if _, err := client.Assess("sa", 0.5); err != nil {
			t.Fatalf("assess after eviction: %v", err)
		}
		if _, total, err := client.History("sa", 1); err != nil || total != want {
			t.Fatalf("history after eviction: total=%d err=%v, want %d", total, err, want)
		}
		if got := a.srv.Metrics().Value("lifecycle.fault_errors"); got != uint64(0) {
			t.Fatalf("lifecycle.fault_errors = %v, want 0", got)
		}
	}

	// Pulled into a resident server, then evicted.
	b.seed(t, rec("sa", "late", false, 1000))
	if err := a.RoundOnce(); err != nil {
		t.Fatal(err)
	}
	if a.Received() != 1 {
		t.Fatalf("received = %d, want 1", a.Received())
	}
	if !a.Store().EvictServer("sa") {
		t.Fatal("server did not evict")
	}
	assessThroughRPC(31)
	if a.srv.Metrics().Value("lifecycle.reinstates") == uint64(0) {
		t.Fatal("read of the evicted server did not fault it in")
	}

	// Pulled for a server that is evicted on the initiator.
	b.seed(t, rec("sa", "later", true, 1001))
	if !a.Store().EvictServer("sa") {
		t.Fatal("server did not evict again")
	}
	if err := a.RoundOnce(); err != nil {
		t.Fatal(err)
	}
	if a.Received() != 2 || a.Store().ServerLen("sa") != 32 {
		t.Fatalf("delta for an evicted server: received=%d len=%d, want 2 and 32",
			a.Received(), a.Store().ServerLen("sa"))
	}
	if err := a.RoundOnce(); err != nil {
		t.Fatal(err)
	}
	if a.InSyncRounds() != 1 {
		t.Fatalf("in-sync rounds = %d, want 1: the delta is being pulled again", a.InSyncRounds())
	}
	a.Store().EvictServer("sa")
	assessThroughRPC(32)
}
