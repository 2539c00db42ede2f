package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"honestplayer/internal/assesscache"
	"honestplayer/internal/behavior"
	"honestplayer/internal/cluster"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/repclient"
	"honestplayer/internal/repserver"
	"honestplayer/internal/service"
	"honestplayer/internal/stats"
	"honestplayer/internal/store"
	"honestplayer/internal/trust"
	"honestplayer/internal/wire"
)

// trustd's defaults that the replay's in-process stack must share.
const (
	defaultCacheSize      = 4096
	defaultRequestTimeout = 10 * time.Second
)

// stack is an in-process copy of what cmd/trustd assembles for a workload,
// built from the same public constructors, plus the twins the probes need:
// state a probe may change without disturbing the stack it mirrors.
type stack struct {
	w        *workload
	wd       *world
	assessor *core.TwoPhase
	cal      *stats.Calibrator
	st       *store.Store            // the (door) node's store
	ps       *ledger.PersistentStore // ledger workloads
	srv      *repserver.Server       // single node: built, never started
	chain    service.Handler         // trustd's interceptor chain around a no-op handler

	cache     *assesscache.Cache // twin of the server's private assessment cache
	twinStore *store.Store       // ledger workloads: Store.AddBatch beneath PersistentStore.AddBatch
	twinLedg  *ledger.Ledger     // ledger workloads: Ledger.AppendBatch beneath it
	twinAcc   map[int32]*core.ServerAccumulator

	view  *cluster.Cluster             // clustered: the door's ring view
	door  *repclient.Client            // clustered: the client connection to the door
	peers map[string]*repclient.Client // clustered: direct links for the forwarding hop
	close []func() error
}

// newAssessor builds the assessor exactly as cmd/trustd builds its default:
// multi testing, average trust, window 10, on the given calibrator (trustd's
// is seeded 1).
func newAssessor(cal *stats.Calibrator) (*core.TwoPhase, error) {
	tester, err := behavior.NewMulti(behavior.Config{WindowSize: 10, Calibrator: cal})
	if err != nil {
		return nil, err
	}
	return core.NewTwoPhase(tester, trust.Average{})
}

func newCalibrator() *stats.Calibrator {
	return stats.NewCalibrator(stats.CalibrationConfig{Seed: 1}, 0)
}

func (s *stack) shutdown() {
	for i := len(s.close) - 1; i >= 0; i-- {
		_ = s.close[i]() // replay state is scratch; a failed close loses nothing
	}
}

// newStack builds and seeds the workload's stack and answers the first full
// sweep. It returns how long that sweep took: on a fresh calibrator that is
// the calibration warm-up.
func newStack(ctx context.Context, wd *world, cal *stats.Calibrator, dir string) (_ *stack, warm time.Duration, err error) {
	w := wd.w
	s := &stack{w: w, wd: wd, cal: cal, cache: assesscache.New(defaultCacheSize), twinAcc: map[int32]*core.ServerAccumulator{}}
	defer func() {
		if err != nil {
			s.shutdown()
		}
	}()
	if s.assessor, err = newAssessor(cal); err != nil {
		return nil, 0, err
	}
	noop := func(context.Context, wire.Envelope) (wire.Envelope, error) { return wire.Envelope{}, nil }
	s.chain = service.Chain(noop, service.Recover(nil), service.WithMetrics(service.NewMetrics()),
		service.SlowLog(nil, 0), service.Deadline(defaultRequestTimeout))

	if w.nodes > 1 {
		if err := s.buildCluster(); err != nil {
			return nil, 0, err
		}
	} else if err := s.buildSingle(ctx, dir); err != nil {
		return nil, 0, err
	}
	if err := s.seed(ctx); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	for lo := 0; lo < len(wd.servers); lo += wire.MaxAssessBatch {
		ids := make([]feedback.EntityID, 0, wire.MaxAssessBatch)
		for _, sv := range wd.servers[lo:min(lo+wire.MaxAssessBatch, len(wd.servers))] {
			ids = append(ids, sv.id)
		}
		if _, err := s.assessBatch(ctx, ids); err != nil {
			return nil, 0, fmt.Errorf("replay warm-up sweep: %w", err)
		}
	}
	return s, time.Since(start), nil
}

func (s *stack) accumulatorFactory() store.AccumulatorFactory {
	return func(server feedback.EntityID) store.Accumulator {
		sa, err := s.assessor.NewServerAccumulator(server)
		if err != nil {
			return nil
		}
		return sa
	}
}

func (s *stack) buildSingle(ctx context.Context, dir string) error {
	w := s.w
	s.st = store.NewSharded(store.DefaultShards)
	cfg := repserver.Config{Assessor: s.assessor, Store: s.st, AssessCacheSize: defaultCacheSize,
		RequestTimeout: defaultRequestTimeout, Incremental: w.incremental}
	if w.ledger {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		opts := ledger.Options{Shards: store.DefaultShards, SnapshotEvery: w.snapshotEvery}
		if w.incremental {
			opts.AccumulatorFactory = s.accumulatorFactory()
			opts.EncodeAccumulator = func(acc store.Accumulator) ([]byte, bool) {
				sa, ok := acc.(*core.ServerAccumulator)
				if !ok {
					return nil, false
				}
				return sa.AppendState(nil)
			}
			opts.RestoreAccumulator = func(server feedback.EntityID, state []byte) (store.Accumulator, int, error) {
				return s.assessor.RestoreServerAccumulator(server, state)
			}
		}
		ps, err := ledger.OpenStoreOptions(ctx, filepath.Join(dir, "ledger"), opts)
		if err != nil {
			return err
		}
		s.ps, s.st = ps, ps.Store()
		s.close = append(s.close, ps.Close)
		cfg.Store, cfg.Recorder = s.st, ps

		s.twinStore = store.NewSharded(store.DefaultShards)
		if w.incremental {
			s.twinStore.SetAccumulatorFactory(s.accumulatorFactory())
		}
		l, _, err := ledger.Open(filepath.Join(dir, "twin-ledger"))
		if err != nil {
			return err
		}
		s.twinLedg = l
		s.close = append(s.close, l.Close)
	}
	srv, err := repserver.New("127.0.0.1:0", cfg)
	if err != nil {
		return err
	}
	s.srv = srv
	s.close = append(s.close, srv.Close)
	return nil
}

// buildCluster starts the workload's nodes in process, each listening on
// loopback, and connects to the door as the live generator does.
func (s *stack) buildCluster() error {
	w := s.w
	addrs, err := freeAddrs(w.nodes)
	if err != nil {
		return err
	}
	members := make([]cluster.Node, w.nodes)
	for i := range members {
		members[i] = cluster.Node{ID: fmt.Sprintf("n%d", i+1), Addr: addrs[i]}
	}
	s.peers = map[string]*repclient.Client{}
	for i, m := range members {
		assessor, err := newAssessor(s.cal)
		if err != nil {
			return err
		}
		st := store.NewSharded(store.DefaultShards)
		srv, err := repserver.New(m.Addr, repserver.Config{Assessor: assessor, Store: st, AssessCacheSize: defaultCacheSize,
			RequestTimeout: defaultRequestTimeout, Incremental: w.incremental})
		if err != nil {
			return err
		}
		s.close = append(s.close, srv.Close)
		view, err := cluster.New(cluster.Config{Self: m.ID, Nodes: members, Replicas: w.replicas})
		if err != nil {
			return err
		}
		s.close = append(s.close, view.Close)
		srv.SetCluster(view)
		srv.Start()
		if i == 0 {
			s.st, s.view = st, view
		}
	}
	for i, m := range members {
		c, err := repclient.Dial(m.Addr, repclient.WithProtocol(repclient.ProtoV2), repclient.WithTimeout(60*time.Second))
		if err != nil {
			return err
		}
		s.close = append(s.close, c.Close)
		if i == 0 {
			s.door = c
		} else {
			s.peers[m.ID] = c
		}
	}
	return nil
}

// seed loads the seeded histories the way the live set-up does, minus the
// socket on a single node.
func (s *stack) seed(ctx context.Context) error {
	for _, sv := range s.wd.servers {
		for lo := 0; lo < sv.seeded; lo += seedFrame {
			chunk := sv.all[lo:min(lo+seedFrame, sv.seeded)]
			if s.door != nil {
				if stored, _, err := s.door.SubmitBatchCtx(ctx, chunk); err != nil || stored != len(chunk) {
					return fmt.Errorf("replay seed %s: stored %d of %d: %v", sv.id, stored, len(chunk), err)
				}
				continue
			}
			results := s.addBatch(chunk)
			for _, r := range results {
				if r.Err != nil || !r.Stored {
					return fmt.Errorf("replay seed %s: stored=%v: %v", sv.id, r.Stored, r.Err)
				}
			}
			if s.twinStore != nil {
				s.twinStore.AddBatch(chunk, 0)
			}
		}
	}
	return nil
}

// addBatch is the single-node write path beneath the submit handlers.
func (s *stack) addBatch(recs []feedback.Feedback) []store.AddResult {
	if s.ps != nil {
		return s.ps.AddBatch(recs, 0)
	}
	return s.st.AddBatch(recs, 0)
}

// assessBatch is the read path: the server's public in-process entry point
// on a single node, a client round trip through the door when clustered
// (routing has no public in-process entry point).
func (s *stack) assessBatch(ctx context.Context, ids []feedback.EntityID) ([]wire.AssessBatchItem, error) {
	if s.door != nil {
		return s.door.AssessBatchCtx(ctx, ids, assessThreshold)
	}
	resp, err := s.srv.AssessBatch(ctx, wire.AssessBatchRequest{Servers: ids, Threshold: assessThreshold})
	return resp.Items, err
}

// counts are the replay's own tallies: the denominators of the per-item
// metrics and the ratios measured where the work happens.
type counts struct {
	ops, assessItems, submitItems int
	batchItems                    int // assess items served by Server.AssessBatch
	reqBytes, respBytes           int
	shardGroups                   int // store shards touched, summed over frames
	suffixes, suspicious          int
	incrementalItems              int // items answered from an accumulator
	recomputeItems                int // items the twin cache missed, so the assessor ran
	cacheGets, cachePuts          int
	appendItems                   int // ServerAccumulator.Append probes
	ledgerRecords                 int
	ringLookups                   int
	forwardedItems                int // items whose replica set (reads) or owner (writes) excludes the door
	hopItems                      int // items sent over the probed forwarding hop
}

// replay walks ops through the stack, one goroutine, one op at a time.
type replay struct {
	ctx context.Context
	s   *stack
	t   *tracer
	n   counts
	buf bytes.Buffer
	// kept pairs request and response payloads of the first ops for the
	// allocation count.
	kept []keptFrame
}

type keptFrame struct {
	reqType, respType wire.MsgType
	req, resp         any
}

const keepFrames = 256

// wireTypes names the op's frames.
func wireTypes(k opKind) (req, resp wire.MsgType) {
	switch k {
	case opAssess:
		return wire.TypeAssess, wire.TypeAssessR
	case opSubmit:
		return wire.TypeSubmit, wire.TypeSubmitR
	case opAssessBatch:
		return wire.TypeAssessB, wire.TypeAssessBR
	default:
		return wire.TypeSubmitB, wire.TypeSubmitBR
	}
}

func requestOf(o *op) any {
	switch o.kind {
	case opAssess:
		return wire.AssessRequest{Server: o.ids[0], Threshold: assessThreshold}
	case opSubmit:
		return wire.SubmitRequest{Feedback: o.recs[0]}
	case opAssessBatch:
		return wire.AssessBatchRequest{Servers: o.ids, Threshold: assessThreshold}
	default:
		return wire.BatchRequest{Records: o.recs}
	}
}

// throughWire encodes payload into a v2 frame, reads the frame back and
// decodes it into out, as two spans; it returns the frame size.
func (r *replay) throughWire(stage string, parent, opID int, t wire.MsgType, payload, out any) (wire.Envelope, int, error) {
	sp := r.t.begin("wire.encode_"+stage, parent, opID)
	env, err := wire.V2Codec.Encode(t, uint64(opID)+1, payload)
	if err == nil {
		err = wire.WriteV2(&r.buf, env)
	}
	r.t.end(sp)
	if err != nil {
		return env, 0, err
	}
	size := r.buf.Len()
	sp = r.t.begin("wire.decode_"+stage, parent, opID)
	got, err := wire.ReadV2(&r.buf)
	if err == nil {
		err = wire.DecodePayload(got, out)
	}
	r.t.end(sp)
	return got, size, err
}

// do replays one op: request through the wire, the interceptor chain, the
// serving call with its probes, response through the wire.
func (r *replay) do(opID int, o *op) error {
	if r.s.door != nil && !(o.kind == opAssessBatch || o.kind == opSubmitBatch) {
		return fmt.Errorf("replay op %d: the clustered replay walks batch frames only, got %s", opID, o.kind)
	}
	root := r.t.begin("op."+o.kind.String(), -1, opID)
	reqType, respType := wireTypes(o.kind)
	sent, got := requestOf(o), newPayload(reqType)
	env, size, err := r.throughWire("req", root, opID, reqType, sent, got)
	if err != nil {
		return err
	}
	r.n.reqBytes += size
	sp := r.t.begin("service.Chain", root, opID)
	_, err = r.s.chain(r.ctx, env)
	r.t.end(sp)
	if err != nil {
		return err
	}

	// Serve what came off the wire, not what went on it.
	var resp any
	switch req := got.(type) {
	case *wire.AssessRequest:
		resp, err = r.serveAssess(root, opID, o, []feedback.EntityID{req.Server}, true)
	case *wire.AssessBatchRequest:
		resp, err = r.serveAssess(root, opID, o, req.Servers, false)
	case *wire.SubmitRequest:
		resp, err = r.serveSubmit(root, opID, o, []feedback.Feedback{req.Feedback}, true)
	case *wire.BatchRequest:
		resp, err = r.serveSubmit(root, opID, o, req.Records, false)
	}
	if err != nil {
		return fmt.Errorf("replay op %d (%s): %w", opID, o.kind, err)
	}
	if _, size, err = r.throughWire("resp", root, opID, respType, resp, newPayload(respType)); err != nil {
		return err
	}
	r.n.respBytes += size
	r.t.end(root)
	r.n.ops++
	if len(r.kept) < keepFrames {
		r.kept = append(r.kept, keptFrame{reqType, respType, sent, resp})
	}
	return nil
}

// serveAssess answers an assess frame and probes the layers beneath it.
func (r *replay) serveAssess(root, opID int, o *op, ids []feedback.EntityID, single bool) (any, error) {
	s, t := r.s, r.t
	var (
		items  []wire.AssessBatchItem
		resp   any
		err    error
		parent int
	)
	switch {
	case s.door != nil:
		parent = t.begin("Client.AssessBatchCtx", root, opID)
		items, err = s.door.AssessBatchCtx(r.ctx, ids, assessThreshold)
		resp = wire.AssessBatchResponse{Items: items}
	case single:
		var one wire.AssessResponse
		parent = t.begin("Server.Assess", root, opID)
		one, err = s.srv.Assess(r.ctx, wire.AssessRequest{Server: ids[0], Threshold: assessThreshold})
		items, resp = []wire.AssessBatchItem{{Server: ids[0], AssessResponse: one}}, one
	default:
		var batch wire.AssessBatchResponse
		parent = t.begin("Server.AssessBatch", root, opID)
		batch, err = s.srv.AssessBatch(r.ctx, wire.AssessBatchRequest{Servers: ids, Threshold: assessThreshold})
		items, resp = batch.Items, batch
		r.n.batchItems += len(ids)
	}
	t.end(parent)
	if err != nil {
		return nil, err
	}
	r.n.assessItems += len(ids)
	for i := range items {
		if why := checkItem(s.wd.servers[o.servers[i]], o.lens[i], o.goods[i], &items[i]); why != "" {
			return nil, &mismatch{server: ids[i], lane: -1, op: opID, reason: why}
		}
		r.n.suffixes += len(items[i].Assessment.Verdict.Suffixes)
		if items[i].Assessment.Suspicious {
			r.n.suspicious++
		}
	}
	if s.view != nil {
		r.probeRouting(parent, opID, ids, true)
	}
	r.probeRead(parent, opID, ids)
	return resp, nil
}

// probeRead re-runs the read path beneath the serving call on the door's
// store: shard views, then per item either the accumulator read or the
// snapshot, cache probe and two-phase recompute.
func (r *replay) probeRead(parent, opID int, ids []feedback.EntityID) {
	s, t := r.s, r.t
	byShard := map[int][]feedback.EntityID{}
	for _, id := range ids {
		idx := s.st.ShardIndex(id)
		byShard[idx] = append(byShard[idx], id)
	}
	r.n.shardGroups += len(byShard)
	var accs []*core.ServerAccumulator
	var cold []feedback.EntityID
	t.probe("Store.ViewShard", parent, opID, func() {
		for idx, group := range byShard {
			s.st.ViewShard(idx, group, func(i int, acc store.Accumulator, _ *feedback.History, _ uint64) {
				if sa, ok := acc.(*core.ServerAccumulator); ok {
					accs = append(accs, sa)
				} else {
					cold = append(cold, group[i])
				}
			})
		}
	})
	if len(accs) > 0 {
		r.n.incrementalItems += len(accs)
		// Read outside the shard lock: the replay is the only goroutine
		// touching the store.
		t.probe("ServerAccumulator.Accept", parent, opID, func() {
			for _, sa := range accs {
				_, _, _ = sa.Accept(assessThreshold) // verified through the serving call above
			}
		})
	}
	if s.view != nil {
		// The door holds no history for servers it forwards.
		return
	}
	for _, id := range cold {
		var (
			h       *feedback.History
			version uint64
			hit     bool
			res     assesscache.Result
		)
		t.probe("Store.Snapshot", parent, opID, func() { h, version = s.st.Snapshot(id) })
		r.n.cacheGets++
		t.probe("assesscache.Get", parent, opID, func() { _, hit = s.cache.Get(id, version, assessThreshold) })
		if hit {
			continue
		}
		r.n.recomputeItems++
		accept := t.probe("TwoPhase.Accept", parent, opID, func() {
			res.Accept, res.Assessment, _ = s.assessor.Accept(h, assessThreshold)
		})
		t.probe("Tester.Test", accept, opID, func() { _, _ = s.assessor.Tester().Test(h) })
		t.probe("trust.Func.Evaluate", accept, opID, func() { _, _ = s.assessor.TrustFunc().Evaluate(h) })
		r.n.cachePuts++
		t.probe("assesscache.Put", parent, opID, func() { s.cache.Put(id, version, assessThreshold, res) })
	}
}

// probeRouting times the ring lookups the door makes for a frame and, for
// reads, the forwarding hop to each owner outside the door.
func (r *replay) probeRouting(parent, opID int, ids []feedback.EntityID, read bool) {
	s, t := r.s, r.t
	remote := map[string][]feedback.EntityID{}
	r.n.ringLookups += len(ids)
	t.probe("Cluster.ReplicaSet", parent, opID, func() {
		for _, id := range ids {
			set := s.view.ReplicaSet(id)
			local := set[0] == s.view.Self()
			for _, n := range set[1:] {
				local = local || (read && n == s.view.Self())
			}
			if !local {
				remote[set[0]] = append(remote[set[0]], id)
			}
		}
	})
	for owner, group := range remote {
		r.n.forwardedItems += len(group)
		if !read {
			continue
		}
		r.n.hopItems += len(group)
		t.probe("Client.ForwardAssessBatchCtx", parent, opID, func() {
			_, _ = s.peers[owner].ForwardAssessBatchCtx(r.ctx, s.view.Self(), group, assessThreshold)
		})
	}
}

// serveSubmit stores a submit frame's records and probes the layers
// beneath the write.
func (r *replay) serveSubmit(root, opID int, o *op, recs []feedback.Feedback, single bool) (any, error) {
	s, t := r.s, r.t
	var (
		batch  wire.BatchResponse
		err    error
		parent int
	)
	switch {
	case s.door != nil:
		parent = t.begin("Client.SubmitBatchReportCtx", root, opID)
		batch, err = s.door.SubmitBatchReportCtx(r.ctx, recs)
	default:
		name := "Store.AddBatch"
		if s.ps != nil {
			name = "PersistentStore.AddBatch"
		}
		parent = t.begin(name, root, opID)
		results := s.addBatch(recs)
		batch.Items = make([]wire.SubmitBatchItem, len(results))
		for i, res := range results {
			if res.Err != nil {
				err = errors.Join(err, res.Err)
			}
			batch.Items[i].Stored = res.Stored
			if res.Stored {
				batch.Stored++
			}
		}
	}
	t.end(parent)
	if err != nil {
		return nil, err
	}
	if batch.Stored != len(recs) {
		return nil, &mismatch{server: recs[0].Server, lane: -1, op: opID, reason: fmt.Sprintf("stored %d of %d records", batch.Stored, len(recs))}
	}
	r.n.submitItems += len(recs)
	shards := map[int]struct{}{}
	for _, rec := range recs {
		shards[s.st.ShardIndex(rec.Server)] = struct{}{}
	}
	r.n.shardGroups += len(shards)

	if s.view != nil {
		ids := make([]feedback.EntityID, len(recs))
		for i, rec := range recs {
			ids[i] = rec.Server
		}
		r.probeRouting(parent, opID, ids, false)
	}
	storeSpan := parent
	if s.twinStore != nil {
		storeSpan = t.probe("Store.AddBatch", parent, opID, func() { s.twinStore.AddBatch(recs, 0) })
		r.n.ledgerRecords += len(recs)
		t.probe("Ledger.AppendBatch", parent, opID, func() { err = s.twinLedg.AppendBatch(recs) })
		if err != nil {
			return nil, err
		}
	}
	if s.w.incremental {
		twins := make([]*core.ServerAccumulator, len(recs))
		for i, idx := range o.servers {
			if twins[i], err = r.twinAccumulator(idx, recs[i]); err != nil {
				return nil, err
			}
		}
		r.n.appendItems += len(recs)
		t.probe("ServerAccumulator.Append", storeSpan, opID, func() {
			for i, sa := range twins {
				sa.Append(recs[i])
			}
		})
	}
	if single {
		return wire.SubmitResponse{Stored: true}, nil
	}
	return batch, nil
}

// twinAccumulator returns the probe's own accumulator for a server, caught
// up to just before next, so appending next is the work the store's
// accumulator just did.
func (r *replay) twinAccumulator(idx int32, next feedback.Feedback) (*core.ServerAccumulator, error) {
	sa := r.s.twinAcc[idx]
	if sa != nil {
		return sa, nil
	}
	sv := r.s.wd.servers[idx]
	sa, err := r.s.assessor.NewServerAccumulator(sv.id)
	if err != nil {
		return nil, err
	}
	for _, rec := range sv.all {
		if rec == next {
			break
		}
		sa.Append(rec)
	}
	r.s.twinAcc[idx] = sa
	return sa, nil
}

// wireAllocs counts heap allocations per frame over the kept frames: encode,
// write, read and decode of the request and of the response.
func (r *replay) wireAllocs() float64 {
	if len(r.kept) == 0 {
		return 0
	}
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, k := range r.kept {
		for _, f := range []struct {
			t       wire.MsgType
			payload any
		}{{k.reqType, k.req}, {k.respType, k.resp}} {
			env, err := wire.V2Codec.Encode(f.t, uint64(i)+1, f.payload)
			if err != nil || wire.WriteV2(&buf, env) != nil {
				return 0
			}
			got, err := wire.ReadV2(&buf)
			if err != nil {
				return 0
			}
			_ = wire.DecodePayload(got, newPayload(f.t)) // decoded once already by the replay
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(2*len(r.kept))
}

func newPayload(t wire.MsgType) any {
	switch t {
	case wire.TypeAssess:
		return new(wire.AssessRequest)
	case wire.TypeAssessR:
		return new(wire.AssessResponse)
	case wire.TypeSubmit:
		return new(wire.SubmitRequest)
	case wire.TypeSubmitR:
		return new(wire.SubmitResponse)
	case wire.TypeAssessB:
		return new(wire.AssessBatchRequest)
	case wire.TypeAssessBR:
		return new(wire.AssessBatchResponse)
	case wire.TypeSubmitB:
		return new(wire.BatchRequest)
	default:
		return new(wire.BatchResponse)
	}
}

// tracedLayers runs the traced replay and fills the per-layer metrics that
// come from its spans and tallies. The replay runs twice on fresh stacks,
// spans on and spans off; the difference is the tracing overhead. It
// returns the trace file's path.
func tracedLayers(ctx context.Context, ls *layerSet, wd *world, tmp, out string) (string, error) {
	var ops []*op
	tenth := max(wd.w.frames/10, 1)
	for i := 0; i < tenth; i++ {
		for l := range wd.lanes {
			ops = append(ops, &wd.lanes[l][i])
		}
	}
	run := func(on bool, dir string) (*replay, time.Duration, time.Duration, error) {
		// Each replay calibrates from cold, as a fresh trustd does: a shared
		// calibrator would hand the second replay the first one's thresholds.
		s, warm, err := newStack(ctx, wd, newCalibrator(), filepath.Join(tmp, dir))
		if err != nil {
			return nil, 0, 0, err
		}
		r := &replay{ctx: ctx, s: s, t: newTracer(on)}
		runtime.GC()
		start := time.Now()
		for i, o := range ops {
			if err := r.do(i, o); err != nil {
				s.shutdown()
				return nil, 0, 0, err
			}
		}
		return r, time.Since(start), warm, nil
	}
	r, onTime, warm, err := run(true, "replay-on")
	if err != nil {
		return "", err
	}
	defer r.s.shutdown()
	r.after()
	off, offTime, _, err := run(false, "replay-off")
	if err != nil {
		return "", err
	}
	off.s.shutdown()

	r.fill(ls, warm)
	ls.set("trace.overhead_share", float64(onTime-offTime)/float64(offTime))
	return writeTrace(out, wd, len(ops), r.t.spans)
}

// after times the calls no op reaches on its own: the stats primitives
// beneath the behaviour test, the feedback codec beneath wire and ledger,
// and a store snapshot to the ledger directory.
func (r *replay) after() {
	s, t := r.s, r.t
	root := t.begin("after", -1, -1)
	t.end(root)
	pmf := make([]float64, 11)
	for _, sv := range s.wd.servers[:min(64, len(s.wd.servers))] {
		n := len(sv.all)
		p := float64(sv.goods[n]) / float64(n)
		t.probe("stats.BinomialPMFInto", root, -1, func() { _ = stats.BinomialPMFInto(pmf, 10, p) })
		_, _ = s.cal.Threshold(10, sv.seeded/10, p) // calibrate the key; the probe times the warm lookup
		t.probe("Calibrator.Threshold", root, -1, func() { _, _ = s.cal.Threshold(10, sv.seeded/10, p) })
	}
	recs := s.wd.servers[0].all
	var enc []byte
	t.probe("feedback.AppendBinary", root, -1, func() {
		for _, rec := range recs {
			enc, _ = feedback.AppendBinary(enc, rec) // generated records always encode
		}
	})
	t.probe("feedback.DecodeBinary", root, -1, func() {
		for rest := enc; len(rest) > 0; {
			var err error
			if _, rest, err = feedback.DecodeBinary(rest); err != nil {
				return
			}
		}
	})
	if s.ps != nil {
		t.probe("PersistentStore.Snapshot", root, -1, func() { _, _ = s.ps.Snapshot() })
	}
}

// fill turns the replay's spans and tallies into per-layer metrics.
func (r *replay) fill(ls *layerSet, warm time.Duration) {
	s, n := r.s, r.n
	tot := totalsOf(r.t.spans)
	// per sets name to the named spans' total time per unit of den, in
	// 1/div ns (1000 → us).
	per := func(name string, div float64, den int, why string, spans ...string) {
		var ns int64
		var seen int
		for _, sp := range spans {
			ns, seen = ns+tot.dur[sp], seen+tot.count[sp]
		}
		if why == "" {
			why = "the replay reaches no " + spans[0] + " call on this workload"
		}
		v, ok := ratio(float64(ns)/div, float64(den))
		ls.setIf(name, v, ok && seen > 0, why)
	}
	items := n.assessItems + n.submitItems
	const (
		noAssess = "no assess traffic in this workload"
		noSubmit = "no submit traffic in this workload"
		noIncr   = "no item is answered from an accumulator on this engine"
		noRecomp = "no item reached the recompute path"
		noLedger = "no ledger in this workload"
		noRing   = "single node"
	)
	per("wire.encode_req_us_per_item", 1000, items, "", "wire.encode_req")
	per("wire.decode_req_us_per_item", 1000, items, "", "wire.decode_req")
	per("wire.encode_resp_us_per_item", 1000, items, "", "wire.encode_resp")
	per("wire.decode_resp_us_per_item", 1000, items, "", "wire.decode_resp")
	ls.set("wire.req_bytes_per_item", float64(n.reqBytes)/float64(items))
	ls.set("wire.resp_bytes_per_item", float64(n.respBytes)/float64(items))
	ls.set("wire.allocs_per_frame", r.wireAllocs())
	per("service.chain_us_per_req", 1000, n.ops, "", "service.Chain")

	per("repserver.assess_batch_us_per_item", 1000, n.batchItems, "no assess.batch frame is served by an in-process Server here", "Server.AssessBatch")
	per("repserver.assess_us", 1000, tot.count["Server.Assess"], "no single assess frame in this workload", "Server.Assess")
	self, ok := ratio(float64(tot.self["Server.AssessBatch"]+tot.self["Server.Assess"])/1000, float64(n.assessItems))
	ls.setIf("repserver.self_us_per_item", self, ok && s.door == nil, "no assess frame is served by an in-process Server here")

	why := noSubmit
	if s.door != nil {
		why = "submits go through the door's socket; no in-process Store.AddBatch call"
	}
	per("store.add_batch_us_per_item", 1000, n.submitItems, why, "Store.AddBatch")
	per("store.view_shard_us_per_item", 1000, n.assessItems, noAssess, "Store.ViewShard")
	per("store.snapshot_us", 1000, tot.count["Store.Snapshot"], noRecomp, "Store.Snapshot")
	bpr, ok := ratio(float64(s.st.ResidentBytes()), float64(s.st.Len()))
	ls.setIf("store.resident_bytes_per_record", bpr, ok, "empty store")
	ls.set("store.shards_per_frame", float64(n.shardGroups)/float64(n.ops))

	per("assesscache.get_us", 1000, n.cacheGets, noRecomp, "assesscache.Get")
	per("assesscache.put_us", 1000, n.cachePuts, noRecomp, "assesscache.Put")
	per("core.accept_incremental_us_per_item", 1000, n.incrementalItems, noIncr, "ServerAccumulator.Accept")
	per("core.accept_recompute_us_per_item", 1000, n.recomputeItems, noRecomp, "TwoPhase.Accept")
	per("core.acc_append_us_per_item", 1000, n.appendItems, "no accumulator is appended to on this workload", "ServerAccumulator.Append")
	var accBytes, accs int
	for _, sv := range s.wd.servers {
		s.st.ViewAccumulator(sv.id, func(acc store.Accumulator, _ uint64) {
			accBytes, accs = accBytes+acc.SizeBytes(), accs+1
		})
	}
	abs, ok := ratio(float64(accBytes), float64(accs))
	ls.setIf("core.acc_bytes_per_server", abs, ok, noIncr)

	per("behavior.test_us_per_item", 1000, n.recomputeItems, noRecomp, "Tester.Test")
	per("trust.value_us_per_item", 1000, n.recomputeItems, noRecomp, "trust.Func.Evaluate")
	sfx, ok := ratio(float64(n.suffixes), float64(n.assessItems))
	ls.setIf("behavior.suffixes_per_item", sfx, ok, noAssess)
	sus, ok := ratio(float64(n.suspicious), float64(n.assessItems))
	ls.setIf("behavior.suspicious_share", sus, ok, noAssess)
	per("stats.pmf_fill_us", 1000, tot.count["stats.BinomialPMFInto"], "", "stats.BinomialPMFInto")
	per("stats.threshold_us", 1000, tot.count["Calibrator.Threshold"], "", "Calibrator.Threshold")
	ls.set("stats.calibration_warm_s", warm.Seconds())

	recs := len(s.wd.servers[0].all)
	per("feedback.append_binary_ns_per_record", 1, recs, "", "feedback.AppendBinary")
	per("feedback.decode_binary_ns_per_record", 1, recs, "", "feedback.DecodeBinary")
	per("ledger.append_batch_us_per_record", 1000, n.ledgerRecords, noLedger, "Ledger.AppendBatch")
	per("ledger.snapshot_ms", 1e6, tot.count["PersistentStore.Snapshot"], noLedger, "PersistentStore.Snapshot")

	per("cluster.ring_lookup_ns", 1, n.ringLookups, noRing, "Cluster.ReplicaSet")
	per("cluster.fwd_hop_us_per_item", 1000, n.hopItems, noRing, "Client.ForwardAssessBatchCtx")
	fs, ok := ratio(float64(n.forwardedItems), float64(items))
	ls.setIf("cluster.forward_share", fs, ok && s.view != nil, noRing)
}
