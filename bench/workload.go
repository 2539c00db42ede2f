package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"time"

	"honestplayer/internal/attack"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
)

// assessThreshold is the trust threshold every generated client asks for.
const assessThreshold = 0.9

// sampleEvery keeps every 64th assess frame of a lane for the deep check
// against the reference assessor.
const sampleEvery = 64

// seedFrame is the submit.batch size used to load histories during set-up.
const seedFrame = 256

type opKind uint8

const (
	opAssess opKind = iota + 1
	opSubmit
	opAssessBatch
	opSubmitBatch
)

func (k opKind) String() string {
	return [...]string{"", "assess", "submit", "assess.batch", "submit.batch"}[k]
}

func (k opKind) isAssess() bool { return k == opAssess || k == opAssessBatch }

// op is one frame of a lane's stream. For assess kinds lens/goods hold the
// history length and good count the generator expects each server to have
// when the frame is served: a lane owns its servers and waits for every
// reply, so these are known when the stream is generated.
type op struct {
	kind    opKind
	servers []int32             // index into world.servers, one per item
	ids     []feedback.EntityID // the same servers as wire IDs (assess kinds)
	lens    []int32
	goods   []int32
	recs    []feedback.Feedback // submit kinds, one per item
}

func (o *op) items() int { return len(o.servers) }

// workload is one traffic mix. Frame counts are per lane and per
// repetition at -seconds 10, sized so that a repetition's timed stream
// takes about a second and a half on a quiet 2-vCPU host; other -seconds
// values scale them in proportion. A run is a fixed amount of work, never a
// fixed time.
type workload struct {
	name string
	why  string
	// The engine settings below become trustd flags (engineFlags) and the
	// traced replay's in-process configuration. Nothing else is passed, so a
	// change of trustd's defaults is measured as what it is.
	incremental   bool   // -incremental
	ledger        bool   // -ledger <dir>, with a restart inside set-up
	snapshotEvery uint64 // -snapshot-every
	replicas      int    // -replicas, clustered workloads only
	nodes         int
	servers       int
	records       int // seeded history length per server
	conns         int
	lanesPerConn  int
	frames        int
	// next appends one op's frames to the lane's stream.
	next func(g *laneGen) []op
}

func (w *workload) lanes() int { return w.conns * w.lanesPerConn }

// engineFlags renders the engine settings as trustd flags.
func (w *workload) engineFlags() []string {
	var f []string
	if w.incremental {
		f = append(f, "-incremental")
	}
	if w.snapshotEvery > 0 {
		f = append(f, "-snapshot-every", strconv.FormatUint(w.snapshotEvery, 10))
	}
	if w.replicas > 0 {
		f = append(f, "-replicas", strconv.Itoa(w.replicas))
	}
	return f
}

var workloads = []*workload{
	{
		name:        "assess_wide",
		why:         "256-item assess.batch frames over 512 short histories, incremental engine: wire response encoding, store.ViewShard and accumulator reads do the work; recompute, ledger, cache and cluster do none",
		incremental: true,
		nodes:       1, servers: 512, records: 200, conns: 2, lanesPerConn: 1, frames: 600,
		next: func(g *laneGen) []op { return []op{g.assess(opAssessBatch, g.rng.Perm(len(g.own)))} },
	},
	{
		name:  "assess_deep",
		why:   "the paper's assess-transact-report loop on 5000-record histories, default flags: every verdict sees a changed history, so behavior/stats/trust recompute dominates and wire is negligible",
		nodes: 1, servers: 64, records: 5000, conns: 2, lanesPerConn: 1, frames: 2 * 170,
		next: func(g *laneGen) []op {
			pick := g.rng.Sample(len(g.own), 8)
			return []op{g.submit(opSubmitBatch, pick), g.assess(opAssessBatch, pick)}
		},
	},
	{
		name:        "ingest_durable",
		why:         "64-record submit.batch frames into a ledger-backed incremental node, boot replay inside set-up: wire request decode, store.AddBatch, accumulator Append, ledger group commit; no assess traffic",
		incremental: true, ledger: true, snapshotEvery: 250000,
		nodes: 1, servers: 512, records: 586, conns: 2, lanesPerConn: 1, frames: 4000,
		next: func(g *laneGen) []op { return []op{g.submit(opSubmitBatch, g.rng.Sample(len(g.own), 64))} },
	},
	{
		name:  "mixed_skew",
		why:   "single assess (90%) and submit (10%) frames on Zipf(1.1) servers from 16 goroutines, default flags: per-request cost on top, writes invalidate hot cache entries and contend with reads on shards",
		nodes: 1, servers: 512, records: 1000, conns: 2, lanesPerConn: 8, frames: 3100,
		next: func(g *laneGen) []op {
			pick := []int{g.zipf()}
			if g.rng.Float64() < 0.10 {
				return []op{g.submit(opSubmit, pick)}
			}
			return []op{g.assess(opAssess, pick)}
		},
	},
	{
		name:        "cluster3",
		why:         "64-item assess.batch (80%) and submit.batch (20%) through one door of a 3-node, 2-replica cluster: a third of the items leave the door, so ring lookup, fwd.* hops and replication carry the cost",
		incremental: true, replicas: 2,
		nodes: 3, servers: 768, records: 200, conns: 2, lanesPerConn: 1, frames: 900,
		next: func(g *laneGen) []op {
			pick := g.rng.Sample(len(g.own), 64)
			if g.rng.Float64() < 0.20 {
				return []op{g.submit(opSubmitBatch, pick)}
			}
			return []op{g.assess(opAssessBatch, pick)}
		},
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// withFrames returns the workload with n frames per lane, and never so few
// that a lane has no second frame to keep for the deep check.
func (w *workload) withFrames(n int) *workload {
	c := *w
	c.frames = max(n, 2*sampleEvery)
	return &c
}

// scaled returns the workload at 1/div of full scale: fewer frames and
// shorter seeded histories over the same servers and lanes.
func (w *workload) scaled(div int) *workload {
	c := w.withFrames(w.frames / div)
	c.records = max(w.records/4, 100)
	return c
}

// serverState is the generator's record of one server: everything it seeded
// and everything the streams will submit, in submission order. A prefix of
// all is the reference history at any point of the run.
type serverState struct {
	id     feedback.EntityID
	p      float64             // rating probability of records submitted during the stream
	all    []feedback.Feedback // seeded history, then stream submissions
	goods  []int32             // goods[n] = good records among all[:n]
	seeded int
}

// world is the seeded input of one run: the servers with their histories,
// and each lane's op stream.
type world struct {
	w       *workload
	seed    uint64
	servers []*serverState
	lanes   [][]op // lanes[l] is issued by lane l; lane l uses connection l / lanesPerConn
}

// laneSlice returns the server indexes lane l owns: a contiguous, disjoint
// slice, so per-server order is the lane's order.
func (w *workload) laneSlice(l int) (lo, hi int) {
	per := w.servers / w.lanes()
	return l * per, (l + 1) * per
}

// mix derives an independent stream seed from the run seed and a purpose.
func mix(seed uint64, purpose, i int) uint64 {
	x := seed ^ uint64(purpose)<<48 ^ uint64(i)<<16
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// buildWorld generates histories and op streams from the seed alone.
// Histories: 80% honest players with p in [0.90, 0.99], 10% hibernating
// attackers (honest preparation, then a burst of bad transactions), 10%
// periodic attackers, so both branches of the behaviour test run.
func buildWorld(w *workload, seed uint64) (*world, error) {
	wd := &world{w: w, seed: seed, servers: make([]*serverState, w.servers), lanes: make([][]op, w.lanes())}
	for i := range wd.servers {
		rng := stats.NewRNG(mix(seed, 1, i))
		id := feedback.EntityID("srv-" + strconv.Itoa(i))
		p := 0.90 + 0.09*rng.Float64()
		var (
			h   *feedback.History
			err error
		)
		switch i % 10 {
		case 3:
			burst := max(w.records/20, 10)
			h, err = attack.GenHibernating(id, w.records-burst, p, burst, rng)
			p = 0.5
		case 7:
			h, err = attack.GenPeriodic(id, w.records, 10, 0.3, rng)
			p = 0.7
		default:
			h, err = attack.GenHonest(id, w.records, p, 50, rng)
		}
		if err != nil {
			return nil, fmt.Errorf("history for %s: %w", id, err)
		}
		s := &serverState{id: id, p: p, all: h.Records(), seeded: h.Len()}
		s.goods = make([]int32, 1, len(s.all)+1)
		for _, r := range s.all {
			s.goods = append(s.goods, s.goods[len(s.goods)-1]+b2i(r.Good()))
		}
		wd.servers[i] = s
	}
	for l := range wd.lanes {
		g := newLaneGen(wd, l)
		for len(g.ops) < w.frames {
			g.ops = append(g.ops, w.next(g)...)
		}
		wd.lanes[l] = g.ops[:w.frames]
	}
	return wd, nil
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// laneGen generates one lane's stream.
type laneGen struct {
	wd   *world
	rng  *stats.RNG
	own  []int32 // server indexes the lane owns
	ops  []op
	rank []int32   // Zipf rank → position in own
	cdf  []float64 // Zipf(1.1) cumulative weights over ranks
}

func newLaneGen(wd *world, lane int) *laneGen {
	lo, hi := wd.w.laneSlice(lane)
	g := &laneGen{wd: wd, rng: stats.NewRNG(mix(wd.seed, 2, lane))}
	for i := lo; i < hi; i++ {
		g.own = append(g.own, int32(i))
	}
	for _, p := range g.rng.Perm(len(g.own)) {
		g.rank = append(g.rank, int32(p))
	}
	var sum float64
	for r := range g.own {
		sum += 1 / math.Pow(float64(r+1), 1.1)
		g.cdf = append(g.cdf, sum)
	}
	for r := range g.cdf {
		g.cdf[r] /= sum
	}
	return g
}

// zipf draws a position in own with Zipf(1.1) popularity over a seeded
// ranking of the lane's servers.
func (g *laneGen) zipf() int {
	u := g.rng.Float64()
	lo, hi := 0, len(g.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return int(g.rank[lo])
}

func (g *laneGen) assess(kind opKind, pick []int) op {
	o := op{kind: kind}
	for _, p := range pick {
		idx := g.own[p]
		s := g.wd.servers[idx]
		o.servers = append(o.servers, idx)
		o.ids = append(o.ids, s.id)
		o.lens = append(o.lens, int32(len(s.all)))
		o.goods = append(o.goods, s.goods[len(s.all)])
	}
	return o
}

func (g *laneGen) submit(kind opKind, pick []int) op {
	o := op{kind: kind}
	for _, p := range pick {
		idx := g.own[p]
		s := g.wd.servers[idx]
		rating := feedback.Negative
		if g.rng.Bernoulli(s.p) {
			rating = feedback.Positive
		}
		// One second past the newest record keeps every submission on the
		// store's in-order append path and unique under its content hash.
		rec := feedback.Feedback{
			Time:   s.all[len(s.all)-1].Time.Add(time.Second),
			Server: s.id,
			Client: feedback.EntityID("cli-" + strconv.Itoa(g.rng.Intn(100))),
			Rating: rating,
		}
		s.all = append(s.all, rec)
		s.goods = append(s.goods, s.goods[len(s.goods)-1]+b2i(rec.Good()))
		o.servers = append(o.servers, idx)
		o.recs = append(o.recs, rec)
	}
	return o
}

// hash digests the op streams (kinds, servers, expectations, records) so
// tests and run documents can state that two runs issued the same stream.
func (wd *world) hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:]) // hash.Hash never fails a Write
	}
	for l, ops := range wd.lanes {
		put(uint64(l))
		for i := range ops {
			o := &ops[i]
			put(uint64(o.kind))
			for j, s := range o.servers {
				put(uint64(s))
				if o.kind.isAssess() {
					put(uint64(o.lens[j])<<32 | uint64(o.goods[j]))
				} else {
					put(uint64(o.recs[j].Time.UnixNano()))
					put(uint64(o.recs[j].Rating))
					_, _ = h.Write([]byte(o.recs[j].Client))
				}
			}
		}
	}
	return h.Sum64()
}
