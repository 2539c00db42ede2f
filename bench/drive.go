package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/repclient"
	"honestplayer/internal/store"
	"honestplayer/internal/wire"
)

// mismatch is a verification failure: which server, at which op of which
// lane. The caller adds the seed.
type mismatch struct {
	server feedback.EntityID
	lane   int
	op     int
	reason string
}

func (m *mismatch) Error() string {
	return fmt.Sprintf("server %s, lane %d, op %d: %s", m.server, m.lane, m.op, m.reason)
}

// sample is one kept assess frame awaiting the deep check.
type sample struct {
	lane, op int
	items    []wire.AssessBatchItem
}

// laneResult is what one issuing goroutine saw.
type laneResult struct {
	attempted int
	good      int
	rttMs     []float64
	samples   []sample
	first     *mismatch // first failed item, if any
	err       error     // transport or request-level failure that ended the lane
}

// procSnap is the quiescent reading taken before and after the timed
// stream: /proc of every trustd, /metricz of every trustd, and the
// generator's own CPU.
type procSnap struct {
	proc    []procSample
	metricz []metricz
	selfCPU float64
}

// repResult is one repetition: fresh trustd, set-up, timed stream, checks.
type repResult struct {
	SetupS    float64 `json:"setup_s"`
	BootS     float64 `json:"boot_s,omitempty"` // ingest_durable: restart on the seeded ledger
	WallS     float64 `json:"wall_s"`           // the timed stream
	CPUS      float64 `json:"trustd_cpu_s"`     // user+sys of every trustd over the timed stream
	RSSMiB    float64 `json:"rss_peak_mib"`     // VmHWM of every trustd at the end of the timed stream
	IOBytes   uint64  `json:"trustd_io_bytes"`  // rchar+wchar of every trustd over the timed stream
	Attempted int     `json:"attempted"`
	Good      int     `json:"good"`
	Failed    int     `json:"failed"`
	Sampled   int     `json:"deep_checked_items"`
	ReopenS   float64 `json:"reopen_verify_s,omitempty"`

	before, after procSnap
	nodes         []*node
	rttMs         []float64
}

// liveRun drives repetitions of one world against real trustd processes.
type liveRun struct {
	ctx context.Context
	f   *fleet
	wd  *world
	ref *core.TwoPhase
	rep int
}

func (r *liveRun) ledgerDir() string {
	return filepath.Join(r.f.tmp, fmt.Sprintf("ledger-%d", r.rep))
}

// startNodes launches the workload's trustd processes on fresh ports. The
// ports are reserved by binding and releasing them, so another process can
// take one before trustd binds it; a node that dies at start-up is
// therefore retried on new ports before the run gives up.
func (r *liveRun) startNodes() (nodes []*node, err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if nodes, err = r.startNodesOnce(); err == nil {
			return nodes, nil
		}
		r.f.killAll()
		if r.ctx.Err() != nil {
			break
		}
	}
	return nil, err
}

func (r *liveRun) startNodesOnce() ([]*node, error) {
	w := r.wd.w
	addrs, err := freeAddrs(2 * w.nodes)
	if err != nil {
		return nil, err
	}
	var peers []string
	for i := 0; i < w.nodes; i++ {
		peers = append(peers, fmt.Sprintf("n%d=%s", i+1, addrs[2*i]))
	}
	nodes := make([]*node, w.nodes)
	for i := range nodes {
		extra := w.engineFlags()
		if w.ledger {
			extra = append(extra, "-ledger", r.ledgerDir())
		}
		if w.nodes > 1 {
			extra = append(extra, "-node-id", fmt.Sprintf("n%d", i+1), "-peers", strings.Join(peers, ","))
		}
		n, err := r.f.start(r.ctx, fmt.Sprintf("n%d", i+1), addrs[2*i], addrs[2*i+1], extra)
		if err != nil {
			return nil, err
		}
		nodes[i] = n
	}
	return nodes, nil
}

// dial opens the workload's v2 connections to the door node.
func (r *liveRun) dial(door *node) ([]*repclient.Client, error) {
	clients := make([]*repclient.Client, r.wd.w.conns)
	for i := range clients {
		c, err := repclient.Dial(door.Addr, repclient.WithProtocol(repclient.ProtoV2), repclient.WithTimeout(60*time.Second))
		if err != nil {
			closeAll(clients)
			return nil, err
		}
		clients[i] = c
	}
	return clients, nil
}

func closeAll(clients []*repclient.Client) {
	for _, c := range clients {
		if c != nil {
			_ = c.Close() // nothing buffered: every request was answered or failed
		}
	}
}

// perConn runs fn once per connection, concurrently, and joins the errors.
func perConn(clients []*repclient.Client, fn func(conn int, c *repclient.Client) error) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *repclient.Client) {
			defer wg.Done()
			errs[i] = fn(i, c)
		}(i, c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// connServers returns the server indexes whose lanes use connection conn.
func (w *workload) connServers(conn int) (lo, hi int) {
	lo, _ = w.laneSlice(conn * w.lanesPerConn)
	_, hi = w.laneSlice((conn+1)*w.lanesPerConn - 1)
	return lo, hi
}

// seedHistories loads every server's seeded history through the wire in
// seedFrame-record frames, each connection loading its own servers.
func (r *liveRun) seedHistories(clients []*repclient.Client) error {
	return perConn(clients, func(conn int, c *repclient.Client) error {
		lo, hi := r.wd.w.connServers(conn)
		for _, s := range r.wd.servers[lo:hi] {
			for start := 0; start < s.seeded; start += seedFrame {
				chunk := s.all[start:min(start+seedFrame, s.seeded)]
				stored, _, err := c.SubmitBatchCtx(r.ctx, chunk)
				if err != nil {
					return fmt.Errorf("seed %s: %w", s.id, err)
				}
				if stored != len(chunk) {
					return fmt.Errorf("seed %s: stored %d of %d records", s.id, stored, len(chunk))
				}
			}
		}
		return nil
	})
}

// sweep assesses every server once in assess.batch frames and checks each
// answer against the seeded history. It warms the calibration grid (and
// whatever cache the engine keeps) and proves the seeded state is what the
// generator believes it is.
func (r *liveRun) sweep(clients []*repclient.Client) error {
	return perConn(clients, func(conn int, c *repclient.Client) error {
		lo, hi := r.wd.w.connServers(conn)
		for start := lo; start < hi; start += wire.MaxAssessBatch {
			end := min(start+wire.MaxAssessBatch, hi)
			ids := make([]feedback.EntityID, 0, end-start)
			for _, s := range r.wd.servers[start:end] {
				ids = append(ids, s.id)
			}
			items, err := c.AssessBatchCtx(r.ctx, ids, assessThreshold)
			if err != nil {
				return fmt.Errorf("warm-up sweep: %w", err)
			}
			for i, it := range items {
				s := r.wd.servers[start+i]
				if why := checkItem(s, int32(s.seeded), s.goods[s.seeded], &it); why != "" {
					return fmt.Errorf("warm-up sweep: server %s: %s", s.id, why)
				}
			}
		}
		return nil
	})
}

// checkItem is the O(1) check every answered verdict gets: no error slot,
// the asked server echoed, and — unless the behaviour test flagged it —
// Trust equal to the generator's good/total ratio, which is what the
// average trust function returns. It returns "" or the reason.
func checkItem(s *serverState, n, good int32, it *wire.AssessBatchItem) string {
	switch {
	case it.Error != nil:
		return fmt.Sprintf("error slot %s: %s", it.Error.Code, it.Error.Message)
	case it.Server != s.id || it.Assessment.Server != s.id:
		return fmt.Sprintf("answered for %q/%q", it.Server, it.Assessment.Server)
	case it.Assessment.Suspicious:
		return ""
	}
	if want := float64(good) / float64(n); it.Assessment.Trust != want {
		return fmt.Sprintf("trust %v, want %d/%d = %v", it.Assessment.Trust, good, n, want)
	}
	return ""
}

// runLane issues one lane's ops in order, each after the previous reply.
func (r *liveRun) runLane(lane int, c *repclient.Client, ops []op) laneResult {
	res := laneResult{rttMs: make([]float64, 0, len(ops))}
	fail := func(i int, server int32, why string) {
		if res.first == nil {
			res.first = &mismatch{server: r.wd.servers[server].id, lane: lane, op: i, reason: why}
		}
	}
	assessFrames := 0
	for i := range ops {
		o := &ops[i]
		if r.ctx.Err() != nil {
			res.err = r.ctx.Err()
			return res
		}
		res.attempted += o.items()
		start := time.Now()
		var items []wire.AssessBatchItem
		switch o.kind {
		case opAssessBatch:
			items, res.err = c.AssessBatchCtx(r.ctx, o.ids, assessThreshold)
		case opAssess:
			var resp wire.AssessResponse
			resp, res.err = c.AssessCtx(r.ctx, o.ids[0], assessThreshold)
			items = []wire.AssessBatchItem{{Server: resp.Assessment.Server, AssessResponse: resp}}
		case opSubmitBatch:
			var resp wire.BatchResponse
			resp, res.err = c.SubmitBatchReportCtx(r.ctx, o.recs)
			for j, it := range resp.Items {
				switch {
				case it.Error != nil:
					fail(i, o.servers[j], "submit refused: "+it.Error.Message)
				case !it.Stored:
					fail(i, o.servers[j], "submit reported as duplicate")
				default:
					res.good++
				}
			}
		case opSubmit:
			var stored bool
			stored, res.err = c.SubmitCtx(r.ctx, o.recs[0])
			if res.err == nil && stored {
				res.good++
			} else if res.err == nil {
				fail(i, o.servers[0], "submit reported as duplicate")
			}
		}
		res.rttMs = append(res.rttMs, float64(time.Since(start).Nanoseconds())/1e6)
		if res.err != nil {
			var er *wire.ErrorResponse
			if errors.As(res.err, &er) {
				// A typed refusal fails the frame's items, not the lane.
				fail(i, o.servers[0], "request refused: "+er.Error())
				res.err = nil
				continue
			}
			res.err = fmt.Errorf("lane %d op %d (%s): %w", lane, i, o.kind, res.err)
			return res
		}
		if !o.kind.isAssess() {
			continue
		}
		if len(items) != o.items() {
			fail(i, o.servers[0], fmt.Sprintf("%d items answered for %d asked", len(items), o.items()))
			continue
		}
		for j := range items {
			if why := checkItem(r.wd.servers[o.servers[j]], o.lens[j], o.goods[j], &items[j]); why != "" {
				fail(i, o.servers[j], why)
			} else {
				res.good++
			}
		}
		if assessFrames%sampleEvery == 0 {
			res.samples = append(res.samples, sample{lane: lane, op: i, items: items})
		}
		assessFrames++
	}
	return res
}

// snap takes a quiescent reading; nothing is in flight when it runs. The
// reading that opens the timed stream fetches /metricz before it samples
// /proc and the closing one after, so the CPU trustd spends answering the
// fetch falls outside the stream's CPU difference.
func (r *liveRun) snap(nodes []*node, closing bool) (procSnap, error) {
	var s procSnap
	readProc := func() error {
		for _, n := range nodes {
			p, err := sampleProc(n.pid())
			if err != nil {
				return fmt.Errorf("sample trustd %s: %w", n.ID, err)
			}
			s.proc = append(s.proc, p)
		}
		s.selfCPU = selfCPUSeconds()
		return nil
	}
	if closing {
		if err := readProc(); err != nil {
			return s, err
		}
	}
	for _, n := range nodes {
		m, err := n.metricz(r.ctx)
		if err != nil {
			return s, err
		}
		s.metricz = append(s.metricz, m)
	}
	if !closing {
		if err := readProc(); err != nil {
			return s, err
		}
	}
	return s, nil
}

// verdictOf strips the routing and engine markers a response may carry,
// leaving what must equal the reference two-phase outcome.
type verdict struct {
	Accept     bool
	Assessment core.Assessment
}

func verdictOf(r wire.AssessResponse) verdict {
	v := verdict{Accept: r.Accept, Assessment: r.Assessment}
	if len(v.Assessment.Verdict.Suffixes) == 0 {
		v.Assessment.Verdict.Suffixes = nil // the codecs may turn nil into empty
	}
	return v
}

// deepCheck recomputes every sampled verdict with the in-process reference
// assessor over the reference prefix of the length the generator expected,
// and requires equality. Samples are replayed per server in order of prefix
// length so each reference history is grown once.
func (r *liveRun) deepCheck(results []laneResult) (checked int, err error) {
	type want struct {
		n        int32
		lane, op int
		got      wire.AssessResponse
	}
	byServer := map[int32][]want{}
	for _, lr := range results {
		for _, s := range lr.samples {
			o := &r.wd.lanes[s.lane][s.op]
			for j, it := range s.items {
				byServer[o.servers[j]] = append(byServer[o.servers[j]], want{o.lens[j], s.lane, s.op, it.AssessResponse})
			}
		}
	}
	for idx, wants := range byServer {
		st := r.wd.servers[idx]
		sort.SliceStable(wants, func(a, b int) bool { return wants[a].n < wants[b].n })
		h := feedback.NewHistory(st.id)
		for _, wt := range wants {
			for h.Len() < int(wt.n) {
				if err := h.Append(st.all[h.Len()]); err != nil {
					return checked, fmt.Errorf("reference history %s: %w", st.id, err)
				}
			}
			accept, a, err := r.ref.Accept(h, assessThreshold)
			if err != nil {
				return checked, fmt.Errorf("reference assessor on %s: %w", st.id, err)
			}
			ref := verdictOf(wire.AssessResponse{Accept: accept, Assessment: a})
			if got := verdictOf(wt.got); !reflect.DeepEqual(got, ref) {
				return checked, &mismatch{server: st.id, lane: wt.lane, op: wt.op,
					reason: fmt.Sprintf("verdict differs from reference over %d records:\n got %+v\nwant %+v", wt.n, got, ref)}
			}
			checked++
		}
	}
	return checked, nil
}

// acknowledged returns, per server, the checksum of everything the server
// acknowledged: the seeded history plus every submission of the streams.
func (r *liveRun) acknowledged() map[feedback.EntityID]store.Checksum {
	sums := make(map[feedback.EntityID]store.Checksum, len(r.wd.servers))
	add := func(rec feedback.Feedback) {
		c := sums[rec.Server]
		c.Count++
		c.XOR ^= uint64(store.HashOf(rec))
		sums[rec.Server] = c
	}
	for _, s := range r.wd.servers {
		for _, rec := range s.all[:s.seeded] {
			add(rec)
		}
	}
	for _, ops := range r.wd.lanes {
		for i := range ops {
			for _, rec := range ops[i].recs {
				add(rec)
			}
		}
	}
	return sums
}

// reopenVerify opens the stopped node's ledger directory in process and
// requires the record count and every per-server checksum to equal the
// acknowledged set.
func (r *liveRun) reopenVerify() (seconds float64, err error) {
	start := time.Now()
	ps, err := ledger.OpenStoreOptions(r.ctx, r.ledgerDir(), ledger.Options{})
	if err != nil {
		return 0, fmt.Errorf("reopen ledger: %w", err)
	}
	defer ps.Close() // read-only use: nothing was appended
	want, got := r.acknowledged(), ps.Store().Checksums()
	total := 0
	for id, w := range want {
		total += w.Count
		if g := got[id]; g != w {
			return 0, &mismatch{server: id, lane: -1, op: -1,
				reason: fmt.Sprintf("reopened ledger holds count=%d xor=%x, acknowledged count=%d xor=%x", g.Count, g.XOR, w.Count, w.XOR)}
		}
	}
	if ps.Store().Len() != total || len(got) != len(want) {
		return 0, fmt.Errorf("reopened ledger holds %d records over %d servers, acknowledged %d over %d",
			ps.Store().Len(), len(got), total, len(want))
	}
	return time.Since(start).Seconds(), nil
}

// runRep performs one repetition. The caller's deferred fleet clean-up
// covers every failure path; the success path stops the nodes gracefully.
func (r *liveRun) runRep() (*repResult, error) {
	w := r.wd.w
	res := &repResult{}
	r.rep++

	setupStart := time.Now()
	nodes, err := r.startNodes()
	if err != nil {
		return nil, err
	}
	clients, err := r.dial(nodes[0])
	if err != nil {
		return nil, err
	}
	defer func() { closeAll(clients) }()
	if err := r.seedHistories(clients); err != nil {
		return nil, err
	}
	if w.ledger {
		// Boot replay belongs to set-up: stop gracefully, restart on the same
		// directory, and reconnect.
		closeAll(clients)
		clients = nil
		if err := r.f.stopAll(); err != nil {
			return nil, err
		}
		bootStart := time.Now()
		if nodes, err = r.startNodes(); err != nil {
			return nil, err
		}
		res.BootS = time.Since(bootStart).Seconds()
		if clients, err = r.dial(nodes[0]); err != nil {
			return nil, err
		}
	}
	if err := r.sweep(clients); err != nil {
		return nil, err
	}
	res.SetupS = time.Since(setupStart).Seconds()
	res.nodes = nodes

	if res.before, err = r.snap(nodes, false); err != nil {
		return nil, err
	}
	results := make([]laneResult, w.lanes())
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for l := range results {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			<-gate
			results[l] = r.runLane(l, clients[l/w.lanesPerConn], r.wd.lanes[l])
		}(l)
	}
	streamStart := time.Now()
	close(gate)
	wg.Wait()
	res.WallS = time.Since(streamStart).Seconds()
	if res.after, err = r.snap(nodes, true); err != nil {
		return nil, err
	}
	user, sys := trustdTicks(res.before, res.after)
	res.CPUS = float64(user+sys) / userHz
	for i, p := range res.after.proc {
		res.RSSMiB += float64(p.VmHWMKiB) / 1024
		res.IOBytes += p.IOBytes - res.before.proc[i].IOBytes
	}

	var first *mismatch
	for _, lr := range results {
		if lr.err != nil {
			return nil, lr.err
		}
		res.Attempted += lr.attempted
		res.Good += lr.good
		res.rttMs = append(res.rttMs, lr.rttMs...)
		if first == nil {
			first = lr.first
		}
	}
	res.Failed = res.Attempted - res.Good
	if first != nil {
		return res, first
	}
	if res.Sampled, err = r.deepCheck(results); err != nil {
		return res, err
	}
	if w.nodes > 1 {
		for i, m := range res.after.metricz {
			if fe, ok := m.num("cluster", "forward_errors"); ok && fe != 0 {
				return res, fmt.Errorf("node %s reports %v forward_errors", nodes[i].ID, fe)
			}
		}
	}

	closeAll(clients)
	clients = nil
	if err := r.f.stopAll(); err != nil {
		return res, err
	}
	if w.ledger {
		if res.ReopenS, err = r.reopenVerify(); err != nil {
			return res, err
		}
	}
	return res, nil
}
