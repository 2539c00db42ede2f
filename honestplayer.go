// Package honestplayer is a Go implementation of the honest-player
// behaviour model for reputation systems from "On the Modeling of Honest
// Players in Reputation Systems" (Zhang, Wei, Yu; ICDCS 2008 / JCST 2009).
//
// Reputation-based trust management predicts future behaviour from past
// feedback — an assumption adversaries break by adapting (hibernating and
// periodic attacks, collusion). This library implements the paper's
// two-phase defence:
//
//  1. Behaviour testing: a server's per-window good-transaction counts are
//     compared against the binomial distribution B(m, p̂) an honest player
//     would produce, using an L¹ distribution distance with an empirically
//     calibrated threshold (95 % confidence). Variants cover single tests,
//     multi-testing over history suffixes, and collusion-resilient testing
//     over issuer-reordered histories.
//  2. Trust functions: only servers that pass phase 1 receive a trust value
//     (average, weighted/EWMA, Beta).
//
// Every tester and trust function exported here is one a node serves
// (trustd's -scheme and -trust), and every caller, node or simulator,
// judges a history by recomputing over it (ADR 0016).
//
// The package also ships the substrates a deployment needs: a deterministic
// statistics kit, a concurrent deduplicating feedback store, a TCP
// reputation server and client, gossip-based feedback dissemination for
// decentralised systems, adversary simulators, and the experiment harness
// that regenerates every figure of the paper's evaluation.
//
// # Quick start
//
//	h := honestplayer.NewHistory("seller-42")
//	// ... append feedback as transactions complete ...
//	tester, _ := honestplayer.NewMultiTester(honestplayer.TesterConfig{})
//	assessor, _ := honestplayer.NewTwoPhase(tester, honestplayer.Average{})
//	ok, a, _ := assessor.Accept(h, 0.9)
//	if a.Suspicious {
//	    // transaction history inconsistent with the honest-player model
//	}
//
// See examples/ for runnable scenarios and DESIGN.md for the system map.
package honestplayer

import (
	"context"
	"time"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/gossip"
	"honestplayer/internal/ledger"
	"honestplayer/internal/metrics"
	"honestplayer/internal/repclient"
	"honestplayer/internal/repserver"
	"honestplayer/internal/service"
	"honestplayer/internal/sim"
	"honestplayer/internal/stats"
	"honestplayer/internal/store"
	"honestplayer/internal/trust"
)

// Data model (package feedback).
type (
	// Feedback is one rating tuple (time, server, client, rating).
	Feedback = feedback.Feedback
	// EntityID identifies a server or client.
	EntityID = feedback.EntityID
	// Rating is the client's evaluation of a transaction.
	Rating = feedback.Rating
	// History is a server's append-only transaction history.
	History = feedback.History
)

// Rating values.
const (
	Positive = feedback.Positive
	Negative = feedback.Negative
)

// NewHistory returns an empty history for a server.
func NewHistory(server EntityID) *History { return feedback.NewHistory(server) }

// Trust functions (package trust).
type (
	// TrustFunc maps a history to a trust value in [0, 1].
	TrustFunc = trust.Func
	// Average is the good-transaction ratio.
	Average = trust.Average
	// Weighted is the EWMA trust function R_t = λf_t + (1−λ)R_{t−1}.
	Weighted = trust.Weighted
	// Beta is the Beta reputation system's posterior mean.
	Beta = trust.Beta
)

// NewWeighted returns the weighted trust function with the given λ.
func NewWeighted(lambda float64) (Weighted, error) { return trust.NewWeighted(lambda) }

// Behaviour testing (package behavior).
type (
	// Tester decides whether a history fits the honest-player model.
	Tester = behavior.Tester
	// TesterConfig parameterises testers (window size m, multi-test stride,
	// minimum windows, threshold calibrator).
	TesterConfig = behavior.Config
	// TestVerdict is a behaviour-test outcome with per-suffix detail.
	TestVerdict = behavior.Verdict
	// SuffixResult is the distribution-test outcome over one suffix.
	SuffixResult = behavior.SuffixResult
)

// ErrInsufficientHistory reports a history too short to behaviour-test.
var ErrInsufficientHistory = behavior.ErrInsufficientHistory

// NewSingleTester returns the Scheme-1 tester (one test over the whole
// history).
func NewSingleTester(cfg TesterConfig) (Tester, error) { return behavior.NewSingle(cfg) }

// NewMultiTester returns the Scheme-2 tester (the history and every recent
// suffix, with the O(n) incremental optimisation).
func NewMultiTester(cfg TesterConfig) (Tester, error) { return behavior.NewMulti(cfg) }

// NewCollusionTester returns the collusion-resilient single tester
// (issuer-reordered history).
func NewCollusionTester(cfg TesterConfig) (Tester, error) { return behavior.NewCollusion(cfg) }

// NewCollusionMultiTester returns the collusion-resilient multi tester.
func NewCollusionMultiTester(cfg TesterConfig) (Tester, error) {
	return behavior.NewCollusionMulti(cfg)
}

// CUSUM is an online change-point detector: O(1) per transaction, fastest
// possible reaction to sharp quality drops. It complements the distribution
// tests, which catch mean-preserving shape manipulation instead.
type CUSUM = behavior.CUSUM

// NewCUSUM returns a detector for a drop from success probability p0 to p1
// alarming at cumulative log-likelihood h.
func NewCUSUM(p0, p1, h float64) (*CUSUM, error) { return behavior.NewCUSUM(p0, p1, h) }

// Two-phase assessment (package core).
type (
	// TwoPhase combines a behaviour tester (phase 1) with a trust function
	// (phase 2).
	TwoPhase = core.TwoPhase
	// Assessment is a two-phase assessment outcome.
	Assessment = core.Assessment
	// ShortHistoryPolicy decides how untestable (short) histories are
	// handled.
	ShortHistoryPolicy = core.ShortHistoryPolicy
)

// Short-history policies.
const (
	RejectShort = core.RejectShort
	AllowShort  = core.AllowShort
)

// NewTwoPhase builds a two-phase assessor; a nil tester degenerates to the
// bare trust function (the paper's baseline).
func NewTwoPhase(tester Tester, fn TrustFunc, opts ...core.Option) (*TwoPhase, error) {
	return core.NewTwoPhase(tester, fn, opts...)
}

// Monitor re-assesses a server continuously as transactions arrive.
type Monitor = core.Monitor

// MonitorAlert records a change in a monitored server's status.
type MonitorAlert = core.Alert

// NewMonitor creates a continuous monitor for one server; interval is the
// number of transactions between re-assessments.
func NewMonitor(assessor *TwoPhase, server EntityID, interval int) (*Monitor, error) {
	return core.NewMonitor(assessor, server, interval)
}

// WithShortHistoryPolicy overrides the default RejectShort policy.
func WithShortHistoryPolicy(p ShortHistoryPolicy) core.Option {
	return core.WithShortHistoryPolicy(p)
}

// Statistics kit (package stats).
type (
	// RNG is the deterministic random generator all simulations use.
	RNG = stats.RNG
	// Calibrator caches Monte-Carlo-calibrated distance thresholds.
	Calibrator = stats.Calibrator
	// CalibrationConfig tunes threshold calibration.
	CalibrationConfig = stats.CalibrationConfig
)

// NewRNG returns a deterministic generator for the given seed.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// NewCalibrator returns a caching threshold calibrator (pResolution 0 means
// 0.01).
func NewCalibrator(cfg CalibrationConfig, pResolution float64) *Calibrator {
	return stats.NewCalibrator(cfg, pResolution)
}

// Adversary models (package attack).
type (
	// StrategicAttacker is the white-box adaptive attacker of §5.1.
	StrategicAttacker = attack.Strategic
	// ColludingAttacker is the collusion attacker of §5.2.
	ColludingAttacker = attack.Colluding
	// AttackCost accounts what an attack run cost the adversary.
	AttackCost = attack.Cost
	// ClientSource supplies arriving clients to a colluding attacker.
	ClientSource = attack.ClientSource
)

// Attack-history generators.
var (
	// GenHibernating builds prep-then-burst histories.
	GenHibernating = attack.GenHibernating
	// GenPeriodic builds attack-window histories (Fig. 7 workload).
	GenPeriodic = attack.GenPeriodic
	// GenCheatAndRun builds the cheat-and-run pattern.
	GenCheatAndRun = attack.GenCheatAndRun
	// GenHonest builds honest multi-client histories.
	GenHonest = attack.GenHonest
	// PrepareHistory builds an attacker's honest preparation phase.
	PrepareHistory = attack.PrepareHistory
	// PrepareByColluders builds a colluder-backed preparation phase.
	PrepareByColluders = attack.PrepareByColluders
)

// Simulation (package sim).
type (
	// Population is the §5.2 client-arrival model (a₁·p / a₂ / a₃).
	Population = sim.Population
	// ScenarioConfig describes a marketplace simulation.
	ScenarioConfig = sim.Config
	// ServerSpec describes one provider in a scenario.
	ServerSpec = sim.ServerSpec
	// ScenarioMetrics aggregates a scenario run.
	ScenarioMetrics = sim.Metrics
)

// Server kinds for scenarios.
const (
	HonestServer      = sim.Honest
	HibernatingServer = sim.Hibernating
	PeriodicServer    = sim.Periodic
	ColludingProvider = sim.Colluding
)

// NewPopulation builds the arrival model (zero a-parameters select the
// paper's defaults a₁=0.5, a₂=0.9, a₃=0.2).
func NewPopulation(prefix string, n int, a1, a2, a3 float64, rng *RNG) (*Population, error) {
	return sim.NewPopulation(prefix, n, a1, a2, a3, rng)
}

// RunScenario simulates a marketplace under the given assessor.
func RunScenario(cfg ScenarioConfig, assessor *TwoPhase) (*ScenarioMetrics, error) {
	return sim.Run(cfg, assessor)
}

// WilsonInterval bounds a Bernoulli success probability (e.g. a trust
// ratio) with the Wilson score interval at normal quantile z.
func WilsonInterval(good, n int, z float64) (lo, hi float64, err error) {
	return stats.WilsonInterval(good, n, z)
}

// Networked deployments (packages store, repserver, repclient, gossip,
// service).
type (
	// FeedbackStore is the concurrent deduplicating record store.
	FeedbackStore = store.Store
	// Server is the TCP reputation server (central deployment).
	Server = repserver.Server
	// ServerConfig parameterises the reputation server (request timeout,
	// drain grace period, slow-request logging, caching, …).
	ServerConfig = repserver.Config
	// ServerStats is the node's metrics registry, rendered on /metricz.
	ServerStats = metrics.Registry
	// Client is the reputation-server client. Every method has a
	// context-taking variant (PingCtx, AssessCtx, …) that derives the
	// round-trip deadline from the context.
	Client = repclient.Client
	// GossipNode reconciles a Server's feedback store with its peers by
	// anti-entropy (P2P deployment): a peer is a Server plus a GossipNode.
	GossipNode = gossip.Reconciler
	// GossipConfig parameterises a gossip node; Node is the Server it
	// repairs, Peers the serving addresses of the other peers.
	GossipConfig = gossip.Config
	// ServiceMetrics aggregates per-request-type counters and latency
	// histograms for any transport built on the service layer.
	ServiceMetrics = service.Metrics
)

// ErrConnBroken reports a client connection poisoned by a transport
// failure (timeout, desynchronised stream) that could not be transparently
// re-established; see repclient.
var ErrConnBroken = repclient.ErrConnBroken

// WithClientTimeout overrides the client's default per-request timeout
// (also the dial timeout).
func WithClientTimeout(d time.Duration) repclient.Option { return repclient.WithTimeout(d) }

// NewStore returns an empty feedback store.
func NewStore() *FeedbackStore { return store.New() }

// NewShardedStore returns an empty feedback store with an explicit shard
// count; writes to different servers on different shards never contend.
func NewShardedStore(shards int) *FeedbackStore { return store.NewSharded(shards) }

// Ledger is an append-only durable feedback log.
type Ledger = ledger.Ledger

// PersistentStore couples a feedback store with a ledger directory: records
// survive restarts.
type PersistentStore = ledger.PersistentStore

// OpenLedger opens (creating if needed) a ledger directory and returns it
// with the replayed records.
func OpenLedger(path string) (*Ledger, []Feedback, error) { return ledger.Open(path) }

// OpenPersistentStore opens a ledger-backed feedback store.
func OpenPersistentStore(path string) (*PersistentStore, error) { return ledger.OpenStore(path) }

// LedgerOptions configures a persistent store open: shard count, segment
// roll-over size, snapshot cadence and memory budget.
type LedgerOptions = ledger.Options

// OpenPersistentStoreOptions opens a ledger-backed feedback store with
// explicit persistence options (segmented ledger, snapshot-on-boot).
func OpenPersistentStoreOptions(ctx context.Context, path string, opts LedgerOptions) (*PersistentStore, error) {
	return ledger.OpenStoreOptions(ctx, path, opts)
}

// NewServer creates a reputation server listening on addr.
func NewServer(addr string, cfg ServerConfig) (*Server, error) { return repserver.New(addr, cfg) }

// DialServer connects to a reputation server.
func DialServer(addr string, opts ...repclient.Option) (*Client, error) {
	return repclient.Dial(addr, opts...)
}

// NewGossipNode creates the anti-entropy reconciler of the Server in
// cfg.Node. It listens nowhere: peers answer its rounds on their serving
// listeners, as cfg.Node answers theirs.
func NewGossipNode(cfg GossipConfig) (*GossipNode, error) {
	return gossip.New(cfg)
}
