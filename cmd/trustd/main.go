// Command trustd runs a reputation node: a TCP reputation server with a
// configurable two-phase assessor, optionally reconciling its feedback store
// with peer nodes by anti-entropy for decentralised deployments.
//
// Requests are deadline-bounded (-request-timeout); shutdown on
// SIGINT/SIGTERM is graceful, draining in-flight requests for up to
// -drain-timeout before force-closing. With -metrics-addr an HTTP/1.1
// endpoint answers GET and HEAD /metricz, one response per connection:
// per-type request counts, error counts, and latency quantiles as JSON, plus
// the write-path counters — submit.batch requests, items, and rejects, and
// (with -ledger) the group-commit flush counters with their group-size
// p50/p99.
//
// A node has one listener (-addr): client frames, fwd.* hops between
// cluster members and the anti-entropy exchange all arrive on it. With
// -interval the node also initiates anti-entropy rounds, pulling records it
// is missing from the serving addresses in -peers.
//
// With -node-id the node joins a static cluster: -peers is then the full
// membership as id=addr pairs, server ownership is partitioned over a
// consistent-hash ring, non-owners forward requests to owners, and
// anti-entropy (if enabled) is scoped to ring neighbours and owned servers.
//
// Usage:
//
//	trustd -addr 127.0.0.1:7700 -scheme multi -trust average
//	trustd -addr :7700 -peers host2:7700,host3:7700 -interval 1s
//	trustd -addr :7700 -request-timeout 2s -drain-timeout 10s -metrics-addr 127.0.0.1:7780
//	trustd -addr :7700 -node-id a -replicas 2 -interval 1s \
//	    -peers a=host1:7700,b=host2:7700,c=host3:7700
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"honestplayer/internal/cluster"
	"honestplayer/internal/core"
	"honestplayer/internal/gossip"
	"honestplayer/internal/ledger"
	"honestplayer/internal/metrics"
	"honestplayer/internal/repserver"
)

// stderr receives the node's log, swappable in tests.
var stderr io.Writer = os.Stderr

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "trustd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("trustd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "127.0.0.1:7700", "reputation server listen address")
		scheme      = fs.String("scheme", core.DefaultSpec.Scheme, "behaviour testing: none | single | multi | collusion | collusion-multi")
		trustName   = fs.String("trust", core.DefaultSpec.Trust, "trust function: average | weighted | beta")
		lambda      = fs.Float64("lambda", core.DefaultSpec.Lambda, "lambda for the weighted trust function")
		window      = fs.Int("window", core.DefaultSpec.Window, "transaction window size m")
		peersArg    = fs.String("peers", "", "comma-separated serving addresses of the nodes to reconcile with; with -node-id, the full cluster membership as id=addr pairs")
		nodeID      = fs.String("node-id", "", "this node's ID in a static cluster (empty = single-node mode; requires -peers membership including this ID)")
		replicas    = fs.Int("replicas", cluster.DefaultReplicas, "replica count per server ID when clustered (owner + R-1 ring successors)")
		interval    = fs.Duration("interval", 0, "anti-entropy round interval: pull missing records from a random peer this often (0 = never initiate; the node still answers its peers' rounds)")
		ledgerPath  = fs.String("ledger", "", "segmented ledger directory for durable feedback storage (empty = in-memory only); a ledger an earlier revision wrote is refused unchanged (see \"Upgrading an older ledger\" in docs/PERSISTENCE.md)")
		snapEvery   = fs.Uint64("snapshot-every", 0, "write a store snapshot after this many durable appends, bounding boot-time replay (0 disables)")
		snapOnStop  = fs.Bool("snapshot-on-shutdown", false, "write a final snapshot during graceful shutdown")
		seed        = fs.Uint64("seed", core.DefaultSpec.Seed, "seed for threshold calibration")
		reqTimeout  = fs.Duration("request-timeout", 10*time.Second, "per-request deadline; exceeding it yields a deadline_exceeded error frame (0 disables)")
		drain       = fs.Duration("drain-timeout", repserver.DefaultDrainTimeout, "grace period for in-flight requests at shutdown")
		slowLog     = fs.Duration("slow-log", 0, "log requests slower than this (0 disables)")
		metricsAddr = fs.String("metrics-addr", "", "HTTP listen address answering GET and HEAD /metricz (empty disables)")
		// Deprecated: -incremental is parsed and ignored; every assessment is
		// recomputed over the stored history (ADR 0016's amendment).
		_         = fs.Bool("incremental", false, "deprecated and ignored: every assessment is recomputed over the stored history")
		memBudget = fs.String("mem-budget", "", "node-wide resident memory budget for server state, e.g. 512MiB or 1G (empty disables; requires -ledger and -snapshot-every, which bounds the tail index): idle servers are evicted to stubs and rebuilt on demand")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	budgetBytes, err := parseSize(*memBudget)
	if err != nil {
		return fmt.Errorf("-mem-budget: %w", err)
	}
	if budgetBytes > 0 && *ledgerPath == "" {
		return errors.New("-mem-budget requires -ledger (evicted state is rebuilt from snapshots)")
	}
	if budgetBytes > 0 && *snapEvery == 0 {
		return errors.New("-mem-budget requires -snapshot-every (only a snapshot rotates the tail index, which otherwise grows outside the budget)")
	}

	assessor, err := core.Spec{Scheme: *scheme, Trust: *trustName, Lambda: *lambda, Window: *window, Seed: *seed}.Build()
	if err != nil {
		return err
	}

	// ctx ends on SIGINT/SIGTERM (or when the caller cancels it); it also
	// bounds a ledger replay so a node told to stop mid-startup exits
	// promptly.
	ctx, stopSignals := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	logger := log.New(stderr, "trustd ", log.LstdFlags)
	serverCfg := repserver.Config{
		Assessor: assessor, Logger: logger,
		RequestTimeout: *reqTimeout, DrainTimeout: *drain, SlowLogThreshold: *slowLog,
	}
	var ps *ledger.PersistentStore
	if *ledgerPath != "" {
		opts := ledger.Options{
			SnapshotEvery: *snapEvery,
			Logf:          logger.Printf,
			MemBudget:     budgetBytes,
		}
		ps, err = ledger.OpenStoreOptions(ctx, *ledgerPath, opts)
		if err != nil {
			return err
		}
		defer func() {
			if *snapOnStop {
				if seq, err := ps.Snapshot(); err != nil {
					logger.Printf("shutdown snapshot: %v", err)
				} else {
					logger.Printf("shutdown snapshot %d written", seq)
				}
			}
			if err := ps.Close(); err != nil {
				logger.Printf("close ledger: %v", err)
			}
		}()
		serverCfg.Store = ps.Store()
		serverCfg.Recorder = ps
	}
	srv, err := repserver.New(*addr, serverCfg)
	if err != nil {
		return err
	}
	reg := srv.Metrics()
	if ps != nil {
		ps.RegisterMetrics(reg)
	}
	if budgetBytes > 0 {
		logger.Printf("memory budget %d bytes: %v servers resident (%v bytes), %v evicted", budgetBytes,
			reg.Value("lifecycle.resident"), reg.Value("lifecycle.resident_bytes"), reg.Value("lifecycle.evicted"))
	}

	// abort closes the bound servers when the rest of start-up fails.
	var metricsSrv *metrics.Server
	abort := func(err error) error {
		if metricsSrv != nil {
			_ = metricsSrv.Close()
		}
		if closeErr := srv.Close(); closeErr != nil {
			logger.Printf("close server: %v", closeErr)
		}
		return err
	}

	var cl *cluster.Cluster
	if *nodeID != "" {
		nodes, err := cluster.ParseNodes(*peersArg)
		if err != nil {
			return abort(fmt.Errorf("-peers: %w", err))
		}
		cl, err = cluster.New(cluster.Config{
			Self: *nodeID, Nodes: nodes, Replicas: *replicas, Logger: logger,
		})
		if err != nil {
			return abort(err)
		}
		srv.SetCluster(cl)
	}

	// The metrics port is bound before the node serves, so that a taken
	// one stops start-up instead of leaving a node without /metricz.
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return abort(fmt.Errorf("-metrics-addr: %w", err))
		}
		metricsSrv = metrics.Serve(ln, reg, logger.Printf)
		logger.Printf("metrics on http://%s/metricz", ln.Addr())
	}

	srv.Start()
	logger.Printf("reputation server (%s) listening on %s (request timeout %s, drain %s)",
		assessor.Name(), srv.Addr(), *reqTimeout, *drain)
	if cl != nil {
		logger.Printf("cluster node %q of %d (replicas %d)", cl.Self(), cl.Size(), cl.Replicas())
	}

	var reconciler *gossip.Reconciler
	if *interval > 0 {
		gcfg := gossip.Config{
			Name: srv.Addr(), Node: srv, Interval: *interval, Seed: *seed, Logger: logger,
		}
		if cl != nil {
			// Clustered: anti-entropy runs against ring neighbours only and
			// repairs only the servers this node's replica sets cover.
			gcfg.Name = cl.Self()
		} else if *peersArg != "" {
			gcfg.Peers = strings.Split(*peersArg, ",")
		}
		reconciler, err = gossip.New(gcfg)
		if err != nil {
			return abort(err)
		}
		reconciler.RegisterMetrics(reg)
		reconciler.Start()
		logger.Printf("anti-entropy as %q every %s", gcfg.Name, *interval)
	}

	<-ctx.Done()
	logger.Printf("shutting down (draining up to %s)", *drain)
	if metricsSrv != nil {
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		if err := metricsSrv.Shutdown(shutdownCtx); err != nil {
			logger.Printf("close metrics server: %v", err)
		}
		cancel()
	}
	if reconciler != nil {
		if err := reconciler.Close(); err != nil {
			logger.Printf("close reconciler: %v", err)
		}
	}
	// The server drains before the peer connections close: a forward or a
	// replication push still in flight keeps its connection, and one begun
	// during the drain finds the pool open and leaves nothing open after.
	err = srv.Close()
	if cl != nil {
		if err := cl.Close(); err != nil {
			logger.Printf("close cluster: %v", err)
		}
	}
	if raw, jerr := json.Marshal(reg); jerr == nil {
		logger.Printf("final stats: %s", raw)
	}
	return err
}

// parseSize parses a byte size with an optional K/M/G (or KiB/MiB/GiB)
// suffix, binary units. Empty and "0" mean disabled.
func parseSize(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	upper := strings.ToUpper(s)
	for _, u := range []struct {
		suffix string
		mult   int64
	}{
		{"GIB", 1 << 30}, {"GB", 1 << 30}, {"G", 1 << 30},
		{"MIB", 1 << 20}, {"MB", 1 << 20}, {"M", 1 << 20},
		{"KIB", 1 << 10}, {"KB", 1 << 10}, {"K", 1 << 10},
		{"B", 1},
	} {
		if strings.HasSuffix(upper, u.suffix) {
			mult = u.mult
			s = s[:len(s)-len(u.suffix)]
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	if n < 0 || n > (1<<63-1)/mult {
		return 0, fmt.Errorf("size %q outside [0, 2^63) bytes", s)
	}
	return n * mult, nil
}
