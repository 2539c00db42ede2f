// Package repserver implements the central reputation server the paper
// assumes for online-auction-style communities (§2): it collects feedback,
// serves transaction histories, and runs two-phase trust assessment on
// behalf of clients.
//
// The server speaks the wire protocol over TCP, one goroutine per
// connection. Requests are dispatched through the transport-agnostic
// service layer (internal/service): per-type registered handlers wrapped in
// an interceptor chain — panic recovery, per-type metrics, slow-request
// logging, and per-request deadline enforcement — with a context threaded
// from the accept loop into every handler.
//
// Shutdown is graceful: Close (or Shutdown with a caller context) stops the
// listener, closes idle connections, lets in-flight requests finish within
// a drain grace period, then cancels their contexts and force-closes
// whatever remains.
package repserver

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/cluster"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/metrics"
	"honestplayer/internal/service"
	"honestplayer/internal/stats"
	"honestplayer/internal/store"
	"honestplayer/internal/wire"
)

// DefaultDrainTimeout bounds how long Close waits for in-flight requests
// before force-closing their connections.
const DefaultDrainTimeout = 5 * time.Second

// maxHistoryChunk caps the records of one history response: a request for
// more, or for none in particular, gets the most recent maxHistoryChunk.
const maxHistoryChunk = 10000

// Recorder is the write path every record entering the node takes (see
// applyBatch). The default writes to the in-memory store; deployments
// wanting durability pass a ledger.PersistentStore (whose Store() must also
// back Config.Store so reads see the writes).
type Recorder interface {
	// Apply stores a batch's records with at most workers concurrent shard
	// groups (workers <= 0 means GOMAXPROCS); result i reports whether
	// record i was new, or why it was not stored.
	Apply(b *feedback.Batch, workers int) []store.AddResult
}

// Config parameterises a Server.
type Config struct {
	// Assessor runs two-phase assessment for TypeAssess requests.
	Assessor *core.TwoPhase
	// Store holds the feedback records; nil means a fresh empty store.
	Store *store.Store
	// Recorder handles feedback writes; nil means writing to Store.
	Recorder Recorder
	// Logger receives connection-level errors; nil disables logging.
	Logger *log.Logger
	// AssessCacheSize is ignored: the node keeps no assessment cache.
	//
	// Deprecated: every verdict is recomputed over the stored history (ADR
	// 0016's amendment).
	AssessCacheSize int
	// Incremental is ignored: the node keeps no per-server accumulators.
	//
	// Deprecated: every verdict is recomputed over the stored history (ADR
	// 0016's amendment).
	Incremental bool
	// BatchWorkers bounds the worker pool one TypeAssessB request fans its
	// shard groups out over; zero means runtime.GOMAXPROCS(0). One worker
	// serialises the batch (useful for deterministic profiling); the items
	// of a single shard are always served by one worker under one shard
	// read-lock acquisition regardless of the pool size.
	BatchWorkers int
	// RequestTimeout bounds each request's handler; a request exceeding it
	// gets a deadline_exceeded error frame and the connection stays open.
	// Zero means no per-request deadline.
	RequestTimeout time.Duration
	// DrainTimeout is the grace period Close gives in-flight requests
	// before cancelling their contexts and force-closing connections; zero
	// means DefaultDrainTimeout.
	DrainTimeout time.Duration
	// SlowLogThreshold logs any request slower than it via Logger; zero
	// disables slow-request logging.
	SlowLogThreshold time.Duration
}

// conn wraps one accepted connection with its drain state: Close shuts an
// idle connection immediately but lets a busy one finish its in-flight
// request first (the handle loop notices closing on the next idle
// transition and exits).
type conn struct {
	nc net.Conn

	mu      sync.Mutex
	busy    bool
	closing bool
}

// setBusy flips the busy flag and reports whether the server has started
// draining this connection.
func (c *conn) setBusy(b bool) (closing bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy = b
	return c.closing
}

// Server is a TCP reputation server.
type Server struct {
	cfg      Config
	listener net.Listener

	pipeline service.Handler // registry dispatch wrapped in interceptors
	perType  *service.Metrics
	reg      *metrics.Registry // the node's one registry, rendered on /metricz

	baseCtx context.Context // cancelled to abort in-flight handlers
	cancel  context.CancelFunc

	mu       sync.Mutex
	conns    map[*conn]struct{}
	closed   bool
	closeErr error // listener-close error from the first Shutdown

	wg     sync.WaitGroup // Serve/Start goroutines
	connWg sync.WaitGroup // per-connection handle loops

	// clusterRef is the node's cluster view, attached after construction via
	// SetCluster (the membership is known before listeners bind, but tests
	// with ephemeral ports learn peer addresses only after every node is
	// up). Nil means single-node: every routing branch collapses to the
	// local path.
	clusterRef atomic.Pointer[cluster.Cluster]

	// Cached anti-entropy summary (see gossip.go), valid while sumVersion is
	// the store's global version.
	sumMu      sync.Mutex
	sumVersion uint64
	sums       map[string]store.Checksum

	// Counters registered in reg (see registerMetrics). nBatchItems counts
	// the servers assess.batch frames named; the nSub* counters submit.batch
	// frames served locally, their records and the items that failed their
	// slot.
	nConns      atomic.Uint64
	nRequests   atomic.Uint64
	nErrors     atomic.Uint64
	nBatchItems atomic.Uint64
	nSubBatches atomic.Uint64
	nSubItems   atomic.Uint64
	nSubRejects atomic.Uint64
}

// New creates a server listening on addr (e.g. "127.0.0.1:0").
func New(addr string, cfg Config) (*Server, error) {
	if cfg.Assessor == nil {
		return nil, errors.New("repserver: nil assessor")
	}
	if cfg.Store == nil {
		cfg.Store = store.New()
	}
	if cfg.Recorder == nil {
		cfg.Recorder = cfg.Store
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = DefaultDrainTimeout
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("repserver: listen %s: %w", addr, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv := &Server{
		cfg:      cfg,
		listener: ln,
		conns:    make(map[*conn]struct{}),
		perType:  service.NewMetrics(),
		reg:      metrics.New(),
		baseCtx:  ctx,
		cancel:   cancel,
	}
	srv.registerMetrics()
	srv.pipeline = srv.buildPipeline()
	return srv, nil
}

// SetCluster attaches (or, with nil, detaches) the node's cluster view.
// Call it before serving traffic: requests observe the attachment
// atomically, but ownership of records accepted before it cannot be
// re-routed retroactively.
func (s *Server) SetCluster(cl *cluster.Cluster) {
	s.clusterRef.Store(cl)
	cl.RegisterMetrics(s.reg)
	s.sumMu.Lock()
	s.sums = nil // scoped to the previous ownership
	s.sumMu.Unlock()
	// Under a memory budget, spend residency on the replica set: servers
	// this node merely forwards for are evicted first.
	if cl != nil {
		s.cfg.Store.SetEvictPreference(func(server feedback.EntityID) bool {
			return !cl.Owns(server)
		})
	} else {
		s.cfg.Store.SetEvictPreference(nil)
	}
}

// Cluster returns the attached cluster view, or nil on a single-node
// server.
func (s *Server) Cluster() *cluster.Cluster { return s.clusterRef.Load() }

// buildPipeline maps each message type to its handler and wraps dispatch in
// the interceptor chain. Order, outermost first: panic recovery (nothing above
// it may be skipped), metrics and slow-log (outside the deadline so a
// timed-out request is observed at its timeout with a deadline error, not
// whenever the abandoned handler finishes), then deadline enforcement. The
// deadline interceptor always runs — even with RequestTimeout zero — so
// that cancelling the server's base context during a forced shutdown
// releases handle loops stuck on a stalled handler.
func (s *Server) buildPipeline() service.Handler {
	handlers := map[wire.MsgType]service.Handler{
		wire.TypePing:       s.handlePing,
		wire.TypeSubmit:     typed(wire.TypeSubmitR, s.submit),
		wire.TypeSubmitB:    typed(wire.TypeSubmitBR, s.submitBatch),
		wire.TypeHistory:    typed(wire.TypeHistoryR, s.history),
		wire.TypeAssess:     typed(wire.TypeAssessR, s.assess),
		wire.TypeAssessB:    typed(wire.TypeAssessBR, s.routeAssessBatch),
		wire.TypeFwdBatch:   typed(wire.TypeFwdBatchR, s.fwdBatch),
		wire.TypeFwdAssessB: typed(wire.TypeFwdAssessBR, s.fwdAssessBatch),
		wire.TypeSummary:    typed(wire.TypeSummaryR, s.gossipSummary),
	}
	dispatch := func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
		h, ok := handlers[env.Type]
		if !ok {
			return wire.Envelope{}, service.Errorf(wire.CodeUnknownType, "%s", env.Type)
		}
		return h(ctx, env)
	}
	return service.Chain(dispatch,
		service.Recover(s.logf),
		service.WithMetrics(s.perType),
		service.SlowLog(s.logf, s.cfg.SlowLogThreshold),
		service.Deadline(s.cfg.RequestTimeout),
	)
}

// Addr returns the bound listener address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Store returns the backing feedback store.
func (s *Server) Store() *store.Store { return s.cfg.Store }

// Metrics returns the node's registry: the server's counters, its store's
// lifecycle gauges and the attached cluster's block, plus whatever other
// layers (a ledger.PersistentStore) register into it. Rendered, it is the
// document /metricz serves.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// registerMetrics declares the server's keys, then the store's and the
// (not yet attached) cluster's blocks.
func (s *Server) registerMetrics() {
	reg := s.reg
	reg.Counter("connections", &s.nConns)
	reg.Gauge("open_connections", func() any {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.conns)
	})
	reg.Counter("requests", &s.nRequests)
	reg.Counter("errors", &s.nErrors)
	reg.Gauge("per_type", func() any {
		if snap := s.perType.Snapshot(); len(snap) > 0 {
			return snap
		}
		return nil
	})
	reg.Counter("batch_items", &s.nBatchItems)
	reg.Counter("submit_batches", &s.nSubBatches)
	reg.Counter("submit_batch_items", &s.nSubItems)
	reg.Counter("submit_batch_rejects", &s.nSubRejects)

	// The threshold grid the tester calibrates on first touch: its points so
	// far, and which kernel draws them at this node's window size (ADR 0007).
	tcfg, _ := behavior.ConfigFor(s.cfg.Assessor.Tester())
	reg.Gauge("calibration.points", func() any {
		if tcfg.Calibrator == nil {
			return 0
		}
		return tcfg.Calibrator.CacheSize()
	})
	reg.Gauge("calibration.kernel", func() any { return stats.CalibrationKernel(tcfg.WindowSize) })

	s.cfg.Store.RegisterMetrics(reg)
	s.Cluster().RegisterMetrics(reg)
}

// Serve accepts connections until Close is called. It returns nil after a
// clean shutdown.
func (s *Server) Serve() error {
	for {
		nc, err := s.listener.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("repserver: accept: %w", err)
		}
		c := &conn{nc: nc}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.nConns.Add(1)
		s.connWg.Add(1)
		go func() {
			defer s.connWg.Done()
			s.handle(c)
		}()
	}
}

// Start runs Serve on a background goroutine and returns immediately.
func (s *Server) Start() {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.Serve(); err != nil {
			s.logf("serve: %v", err)
		}
	}()
}

// Close gracefully shuts the server down with the configured DrainTimeout:
// it stops accepting, closes idle connections, waits for in-flight
// requests to complete, then force-closes whatever remains. It is
// idempotent.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// Shutdown is Close with a caller-supplied drain context: in-flight
// requests may complete until ctx is done, after which their contexts are
// cancelled and the connections force-closed. The first call owns the drain
// and always waits for every handler goroutine to exit before returning;
// concurrent calls wait for that drain only until their own ctx expires
// (returning ctx.Err()), and otherwise report the first call's
// listener-close error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		closeErr := s.closeErr
		s.mu.Unlock()
		drained := make(chan struct{})
		go func() {
			s.connWg.Wait()
			s.wg.Wait()
			close(drained)
		}()
		select {
		case <-drained:
			return closeErr
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.closed = true
	err := s.listener.Close()
	s.closeErr = err
	// Mark every connection draining; close the idle ones now (their handle
	// loops are blocked reading a frame and wake on the close). Busy ones get
	// to finish their current request.
	for c := range s.conns {
		c.mu.Lock()
		c.closing = true
		if !c.busy {
			_ = c.nc.Close()
		}
		c.mu.Unlock()
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.connWg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		// Grace period over: abort in-flight handlers and cut the wires.
		s.cancel()
		s.mu.Lock()
		for c := range s.conns {
			_ = c.nc.Close()
		}
		s.mu.Unlock()
		<-drained
	}
	s.cancel()
	s.wg.Wait()
	return err
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Printf(format, args...)
	}
}

// handle serves one connection: the hello, then frames. An opening that is
// not a hello — a JSON line, say — is closed and counted in errors; a
// connection closed before its first byte (a readiness probe) is not.
func (s *Server) handle(c *conn) {
	defer func() {
		_ = c.nc.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()
	reader := bufio.NewReader(c.nc)
	rev, err := wire.ReadHello(reader)
	if err != nil {
		if errors.Is(err, wire.ErrBadMessage) {
			s.nErrors.Add(1)
		}
		return
	}
	if err := wire.WriteHelloAck(c.nc); err != nil {
		return
	}
	s.serve(c, reader, wire.CodecFor(rev))
}

// serve is the request loop of one connection. Each request runs through the
// service pipeline with the server's base context, which carries the
// connection's codec; handler errors become error frames (the connection
// survives them), and so does a response too large to frame and a frame of a
// type this build does not know; other write failures end the connection.
//
// Responses gather in a burst (wire.Burst) that is written only when no
// further request is already buffered, or once it passes wire.MaxBurst — a
// pipelined burst of N requests costs ~one write syscall, not N — and once
// more when the loop ends, whatever ended it. Between bursts the connection
// holds no write buffer.
//
// Each request is read into a buffer from the frame pool, taken once the
// frame's first byte has arrived: the envelope's payload aliases it, and
// every handler fully decodes the payload before returning, after which the
// buffer goes back. The one exception is a handler abandoned by the deadline
// interceptor, to which the buffer is surrendered: it never returns to the
// pool.
func (s *Server) serve(c *conn, reader *bufio.Reader, codec wire.Codec) {
	var out wire.Burst
	defer func() { _ = out.Flush(c.nc) }()
	ctx := service.WithCodec(s.baseCtx, codec)
	for {
		if c.setBusy(false) {
			return // draining and idle: stop before reading another request
		}
		// Flush before a read that may block: the client's pipeline stays
		// full only while responses keep flowing.
		if reader.Buffered() == 0 || out.Len() > wire.MaxBurst {
			if err := out.Flush(c.nc); err != nil {
				s.nErrors.Add(1)
				return
			}
		}
		if _, err := reader.Peek(1); err != nil {
			return // closed between frames: the normal end of a connection
		}
		frameBuf := wire.FrameBuf()
		env, buf, err := codec.ReadFrame(reader, *frameBuf)
		*frameBuf = buf
		if err == nil {
			// The frame joins the connection's state before a handler
			// decodes it: the client committed it when it wrote it. A
			// section Commit refuses is a protocol violation.
			err = codec.Commit(&env)
		}
		var herr error
		if errors.Is(err, wire.ErrUnknownType) {
			// Read whole, so the stream is still in step: answer this frame
			// alone, as a request type without a handler is answered.
			herr = service.Errorf(wire.CodeUnknownType, "%v", err)
		} else if err != nil {
			// EOF and closed connections are normal terminations; protocol
			// violations get a best-effort error frame. The frame is forced
			// to wire.UnattributableID — even when the offending frame's own
			// id parsed (a binary payload on a bridged connection) — because
			// the server closes the connection right after, and id 0 is the
			// documented connection-fatal signal that makes clients poison it
			// immediately instead of on their next call.
			if errors.Is(err, wire.ErrBadMessage) || errors.Is(err, wire.ErrBadVersion) ||
				errors.Is(err, wire.ErrFrameTooLarge) {
				s.nErrors.Add(1)
				_ = out.Append(service.ErrorEnvelopeCodec(codec, wire.UnattributableID,
					service.Errorf(wire.CodeBadRequest, "%v", err)))
			}
			return
		}
		// Claim the request under the conn lock: either we mark ourselves
		// busy before the drain pass inspects this connection (so it stays
		// open until the response is written), or the drain pass already
		// closed it as idle and the frame cannot be answered.
		c.mu.Lock()
		if c.closing {
			c.mu.Unlock()
			return
		}
		c.busy = true
		c.mu.Unlock()
		s.nRequests.Add(1)
		var resp wire.Envelope
		if herr == nil {
			resp, herr = s.pipeline(ctx, env)
		}
		if herr != nil {
			s.nErrors.Add(1)
			resp = service.ErrorEnvelopeCodec(codec, env.ID, herr)
			// A deadline or cancellation error means the interceptor gave up
			// on a handler that may still be reading env.Payload: its buffer
			// is the handler's (TestRequestDeadlineExceeded pins the
			// hand-over under -race).
			if errors.Is(herr, context.DeadlineExceeded) || errors.Is(herr, context.Canceled) {
				frameBuf = nil
			}
		}
		err = out.Append(resp)
		if errors.Is(err, wire.ErrFrameTooLarge) {
			// Append checks the size before the first byte, so nothing of
			// the response is in the burst: the request is answered with an
			// error it can be matched to, and the connection lives on.
			s.nErrors.Add(1)
			resp = service.ErrorEnvelopeCodec(codec, env.ID,
				service.Errorf(wire.CodeResponseTooLarge, "%s response: %v (limit %d)", resp.Type, err, wire.MaxFrame))
			err = out.Append(resp)
		}
		if err == nil {
			// The frame is on its way: its plan is the connection's now,
			// and only now. A response never written — a handler the
			// deadline abandoned, one too large to frame — commits nothing,
			// and the client commits the same frames in the same order.
			err = codec.Commit(&resp)
		}
		if err != nil {
			s.nErrors.Add(1)
			s.logf("conn %s: write %s response: %v", c.nc.RemoteAddr(), env.Type, err)
			return
		}
		if frameBuf != nil {
			wire.PutFrameBuf(frameBuf)
		}
	}
}

// typed adapts a function from a decoded request payload to a response
// payload into a service.Handler: the payload decodes in the connection's
// codec, against the connection's state, and one that does not
// decode is a bad_request; fn's error becomes the error frame, and its
// response is encoded in the connection's codec under respType.
func typed[Req, Resp any](respType wire.MsgType, fn func(context.Context, Req) (Resp, error)) service.Handler {
	return func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
		var req Req
		if err := service.CodecFrom(ctx).DecodePayload(env, &req); err != nil {
			return wire.Envelope{}, service.Errorf(wire.CodeBadRequest, "%v", err)
		}
		resp, err := fn(ctx, req)
		if err != nil {
			return wire.Envelope{}, err
		}
		return service.CodecFrom(ctx).Encode(respType, env.ID, resp)
	}
}

func (s *Server) handlePing(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
	return service.CodecFrom(ctx).Encode(wire.TypePong, env.ID, nil)
}

// submit serves a single submit as a batch of one: same routing, same error
// codes as the record would get in a submit.batch frame, with its item slot
// unwrapped into the single response.
func (s *Server) submit(ctx context.Context, req wire.SubmitRequest) (wire.SubmitResponse, error) {
	resp, err := s.routeSubmit(ctx, pack([]feedback.Feedback{req.Feedback}), false)
	if err != nil {
		return wire.SubmitResponse{}, err
	}
	if e := resp.Items[0].Error; e != nil {
		return wire.SubmitResponse{}, e
	}
	return wire.SubmitResponse{Stored: resp.Items[0].Stored}, nil
}

func (s *Server) submitBatch(ctx context.Context, req wire.BatchView) (wire.BatchResponse, error) {
	if n := req.Records.Len(); n > wire.MaxSubmitBatch {
		return wire.BatchResponse{}, service.Errorf(wire.CodeBadRequest,
			"batch of %d records exceeds max %d", n, wire.MaxSubmitBatch)
	}
	return s.routeSubmit(ctx, withBatch(req.Records), true)
}

// withBatch returns rb holding a batch, empty if rb held none: a JSON
// payload without its "records" key decodes to no batch at all.
func withBatch(rb wire.RecordBatch) wire.RecordBatch {
	if rb.Batch == nil {
		rb.Batch = new(feedback.Batch)
	}
	return rb
}

// pack is the []Feedback edge of the write path: recs as a RecordBatch,
// its invalid records left out of the batch and failing their own slots.
func pack(recs []feedback.Feedback) wire.RecordBatch {
	b, errs := feedback.Pack(recs)
	return wire.RecordBatch{Batch: b, Invalid: errs}
}

// routeSubmit applies client-submitted records: split by owner on a
// clustered node, stored in place otherwise. batchFrame says whether the
// records arrived in a batch frame, which is what the submit_batch* counters
// count.
func (s *Server) routeSubmit(ctx context.Context, rb wire.RecordBatch, batchFrame bool) (wire.BatchResponse, error) {
	if cl := s.clusterRef.Load(); cl != nil && cl.Size() > 1 {
		return s.clusterBatch(ctx, cl, rb, batchFrame)
	}
	return s.applyBatch(ctx, rb, batchFrame)
}

// applyBatch is the one door records enter a node through — client frames,
// fwd.submit.batch hand-overs and replica pushes, anti-entropy rounds'
// record batches and Seed alike: one Recorder.Apply call, so every record
// is applied one server run at a time over the bounded worker pool and, on
// a durable node, pinned, group-committed and tail-indexed. It reports per
// record with the semantics of a batch submit: bad records fail their own
// item slot, never the batch. Items[i] always answers the list's record i;
// len(Items) == rb.Len().
func (s *Server) applyBatch(ctx context.Context, rb wire.RecordBatch, batchFrame bool) (wire.BatchResponse, error) {
	if err := ctx.Err(); err != nil {
		return wire.BatchResponse{}, err
	}
	results := s.cfg.Recorder.Apply(rb.Batch, s.cfg.BatchWorkers)
	items := make([]wire.SubmitBatchItem, rb.Len())
	k := 0
	for i := range items {
		if rb.Invalid != nil && rb.Invalid[i] != nil {
			items[i].Error = storeError(rb.Invalid[i])
			continue
		}
		if r := results[k]; r.Err != nil {
			items[i].Error = storeError(r.Err)
		} else {
			items[i].Stored = r.Stored
		}
		k++
	}
	resp := wire.NewBatchResponse(items)
	if batchFrame {
		s.nSubBatches.Add(1)
		s.nSubItems.Add(uint64(len(items)))
		s.nSubRejects.Add(uint64(len(resp.Rejected)))
	}
	return resp, nil
}

func (s *Server) history(ctx context.Context, req wire.HistoryRequest) (wire.HistoryResponse, error) {
	if req.Server == "" {
		return wire.HistoryResponse{}, service.Errorf(wire.CodeBadRequest, "missing server")
	}
	if err := ctx.Err(); err != nil {
		return wire.HistoryResponse{}, err
	}
	h, err := s.cfg.Store.History(req.Server)
	if err != nil {
		return wire.HistoryResponse{}, storeError(err)
	}
	recs := h.Records()
	total := len(recs)
	limit := req.Limit
	if limit <= 0 || limit > maxHistoryChunk {
		limit = maxHistoryChunk
	}
	if len(recs) > limit {
		recs = recs[len(recs)-limit:]
	}
	return wire.HistoryResponse{Records: recs, Total: total}, nil
}

// storeError is the error frame for what the store or the Recorder reported
// about one record or server: a record Validate rejects is invalid_feedback,
// a server the store could not fault back in is unavailable (a cluster door
// tries the next replica), a context's end keeps its code, and anything else
// — a ledger append that failed, say — is internal.
func storeError(err error) *wire.ErrorResponse {
	switch {
	case errors.Is(err, feedback.ErrInvalidRating), errors.Is(err, feedback.ErrEmptyEntity),
		errors.Is(err, feedback.ErrTimeRange), errors.Is(err, feedback.ErrRecordTooLarge):
		return &wire.ErrorResponse{Code: wire.CodeInvalidFeedback, Message: err.Error()}
	case errors.Is(err, store.ErrEvicted):
		return &wire.ErrorResponse{Code: wire.CodeUnavailable, Message: err.Error()}
	}
	return service.ErrorResponseFrom(err)
}

// Seed loads records into the local store without a network hop or cluster
// routing — bootstrapping from a file, say — through the same applyBatch as
// a submitted frame. It returns how many were new; a rejected record is
// reported as the error, and does not keep the others from being stored.
func (s *Server) Seed(recs []feedback.Feedback) (int, error) { return s.SeedBatch(pack(recs)) }

// SeedBatch is Seed for a record batch — the records an anti-entropy round
// pulled — which it stores without building a list of records.
func (s *Server) SeedBatch(rb wire.RecordBatch) (int, error) {
	resp, err := s.applyBatch(s.baseCtx, withBatch(rb), false)
	if err != nil {
		return 0, err
	}
	if len(resp.Rejected) > 0 {
		r := resp.Rejected[0]
		return resp.Stored, fmt.Errorf("repserver: seed rejected %d of %d records (first: record %d: %s)",
			len(resp.Rejected), rb.Len(), r.Index, r.Reason)
	}
	return resp.Stored, nil
}
