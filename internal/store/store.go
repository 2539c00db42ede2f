// Package store provides the concurrent feedback store behind a reputation
// node, in the paper's central-collector deployment and, kept in step by
// anti-entropy, in the P2P one: per-server transaction histories with
// duplicate suppression and deterministic time ordering.
//
// The store is sharded by server ID, so writes against different servers
// proceed without contention, and a server's version is its record count,
// which each accepted write grows, so "history unchanged since I last
// looked" is an O(1) check. The store holds records only: no per-server
// assessment state rides beside a history (ADR 0016's amendment).
package store

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"honestplayer/internal/feedback"
)

// DefaultShards is the shard count used by New. Shards only bound write
// contention (each shard has its own lock); the value does not affect any
// observable ordering or content.
const DefaultShards = 16

// Hash is the content hash of a feedback record, used for duplicate
// suppression and gossip set reconciliation.
type Hash uint64

// HashOf returns f's content hash, feedback.ContentHash.
func HashOf(f feedback.Feedback) Hash {
	return Hash(feedback.ContentHash(f.Time.UnixNano(), f.Rating, f.Server, f.Client))
}

// HashAt returns the content hash of h's i-th record, HashOf(h.At(i)),
// straight from the columns.
func HashAt(h *feedback.History, i int) Hash {
	return Hash(feedback.ContentHash(h.NanosAt(i), h.RatingAt(i), h.Server(), h.ClientAt(i)))
}

// Accumulator is what SetAccumulatorFactory used to mint per server.
//
// Deprecated: the store keeps no accumulators (ADR 0016's amendment).
type Accumulator interface {
	Append(feedback.Feedback)
	SizeBytes() int
}

// AccumulatorFactory is what SetAccumulatorFactory used to install.
//
// Deprecated: the store keeps no accumulators (ADR 0016's amendment).
type AccumulatorFactory func(server feedback.EntityID) Accumulator

// entry is one server's state within a shard: the working history, a
// memoized read snapshot and a running content checksum. An entry is either
// resident (hist set) or an evicted stub (hist nil; sum stays) — see
// lifecycle.go.
type entry struct {
	// hist is the store-owned working history, mutated only under the
	// shard's write lock: appended in place on the fast path, rebuilt on
	// the rare out-of-order insert (never shifted in place, so handed-out
	// snapshots stay intact). nil marks an evicted stub.
	hist *feedback.History
	// snap memoizes the immutable view handed to readers; writes clear it,
	// the next read rebuilds it in O(1) via SnapshotView. Atomic because
	// readers memoize under the shard's read lock.
	snap atomic.Pointer[feedback.History]
	// sum is the record count and the XOR of all content hashes, maintained
	// incrementally so gossip checksums cost O(servers) instead of
	// O(records), and kept through an eviction to verify the rebuild. The
	// count is the server's version: every accepted write adds one record,
	// so 0 means "never seen".
	sum Checksum
	// sizeBytes is the accounted resident footprint (entryOverhead +
	// history), maintained by resizeLocked; 0 for stubs.
	sizeBytes int
	// touched is the clock (second-chance) bit: reads and writes set it, the
	// eviction sweep clears it and only evicts entries found clear. Atomic
	// because read paths hold only the shard read lock.
	touched atomic.Bool
}

// snapshot returns the entry's memoized immutable view, building it if a
// write invalidated it. Callers must hold the shard lock (read suffices).
func (e *entry) snapshot() *feedback.History {
	if s := e.snap.Load(); s != nil {
		return s
	}
	s := e.hist.SnapshotView()
	e.snap.Store(s)
	return s
}

// shard is one lock domain of the store, padded to a cache line so that
// neighbouring shards' locks do not false-share.
type shard struct {
	mu     sync.RWMutex
	byServ map[feedback.EntityID]*entry
	_      [32]byte
}

// Store is a concurrent, deduplicating feedback store. Records are kept
// per server, sorted by transaction time (ties broken by content hash for
// determinism across nodes), which is the order behaviour tests require.
//
// The zero value is not usable; construct with New or NewSharded.
type Store struct {
	shards []shard
	// total counts stored (non-duplicate) records across all shards.
	total atomic.Int64

	// Lifecycle governor state (see lifecycle.go): the accounted resident
	// footprint and its budget, resident/evicted populations, cumulative
	// counters, the loader and the pin/preference hooks, the sweep's clock
	// hand, and the in-flight fault-ins, one per server.
	residentBytes atomic.Int64
	budget        atomic.Int64
	residentCount atomic.Int64
	evictedCount  atomic.Int64
	evictions     atomic.Uint64
	reinstates    atomic.Uint64
	faultWaits    atomic.Uint64
	faultErrors   atomic.Uint64
	loader        atomic.Pointer[Loader]
	evictGuard    atomic.Pointer[EvictGuard]
	evictPref     atomic.Pointer[EvictPreference]
	evictMu       sync.Mutex
	clock         int // shard the next sweep starts from; under evictMu
	faultMu       sync.Mutex
	faults        map[feedback.EntityID]*fault // under faultMu
}

// New returns an empty store with DefaultShards shards.
func New() *Store { return NewSharded(DefaultShards) }

// NewSharded returns an empty store with n shards; n < 1 is treated as 1.
func NewSharded(n int) *Store {
	if n < 1 {
		n = 1
	}
	s := &Store{shards: make([]shard, n)}
	for i := range s.shards {
		s.shards[i].byServ = make(map[feedback.EntityID]*entry)
	}
	return s
}

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// shardOf maps a server ID to its shard.
func (s *Store) shardOf(server feedback.EntityID) *shard {
	return &s.shards[s.ShardIndex(server)]
}

// ShardIndex returns the index (< NumShards) of the shard holding server's
// records. Batch readers group servers by shard index so all items of one
// shard can be served under a single lock acquisition (see ViewShard).
func (s *Store) ShardIndex(server feedback.EntityID) int {
	h := uint64(14695981039346656037) // FNV-1a, 64-bit
	for i := 0; i < len(server); i++ {
		h = (h ^ uint64(server[i])) * 1099511628211
	}
	return int(h % uint64(len(s.shards)))
}

// Add inserts a feedback record as an AddBatch of one. It returns false
// when an identical record (same content hash) was already present, and an
// error when the record is invalid or its server is evicted and cannot be
// faulted back in (ErrEvicted).
func (s *Store) Add(f feedback.Feedback) (bool, error) {
	r := s.AddBatch([]feedback.Feedback{f}, 1)[0]
	return r.Stored, r.Err
}

// Merge puts f where it belongs in h, which is sorted by (time, hash), and
// returns the history that holds it: h itself, appended in place, when f is
// newer than every record of h, else a rebuilt copy; h is returned untouched
// when it already holds f. An invalid f, or one for another server, is an
// error. The persistence layer merges a rebuilt server's tail records with it.
func Merge(h *feedback.History, f feedback.Feedback) (*feedback.History, error) {
	pos, dup := locate(h, f.Time.UnixNano(), HashOf(f))
	if dup {
		return h, nil
	}
	if pos < h.Len() {
		return insertSorted(h, pos, f)
	}
	// Append fast path: in-place, amortised O(1). Outstanding snapshots are
	// unaffected — the append writes past their length.
	return h, h.Append(f)
}

// locate finds where a record with the given time and content hash belongs
// in h, which is sorted by (time, hash), and whether h already holds it —
// the history is its own dedup index. A record newer than the newest one
// costs one comparison; anything else, three binary searches.
func locate(h *feedback.History, nanos int64, hash Hash) (pos int, dup bool) {
	n := h.Len()
	if n == 0 || h.NanosAt(n-1) < nanos {
		return n, false
	}
	lo := sort.Search(n, func(i int) bool { return h.NanosAt(i) >= nanos })
	hi := lo + sort.Search(n-lo, func(i int) bool { return h.NanosAt(lo+i) > nanos })
	pos = lo + sort.Search(hi-lo, func(i int) bool { return HashAt(h, lo+i) >= hash })
	return pos, pos < hi && HashAt(h, pos) == hash
}

// insertSorted rebuilds a history with f inserted at position pos.
// Out-of-order arrivals are the rare path (gossip deltas, ledger replays of
// interleaved servers), so the O(n) rebuild is acceptable; a fresh backing
// array (rather than an in-place shift) keeps old snapshots untouched. The
// copy starts in h's time form, so only f can rescale or widen it.
func insertSorted(h *feedback.History, pos int, f feedback.Feedback) (*feedback.History, error) {
	n := h.Len()
	out := feedback.NewHistoryLike(h, n+1)
	for i := 0; i < pos; i++ {
		// Records re-appended from a valid history cannot fail.
		_ = out.Append(h.At(i))
	}
	if err := out.Append(f); err != nil {
		return nil, err
	}
	for i := pos; i < n; i++ {
		_ = out.Append(h.At(i))
	}
	return out, nil
}

// AddAll inserts records, returning how many were new.
func (s *Store) AddAll(recs []feedback.Feedback) (int, error) {
	added := 0
	for i, f := range recs {
		ok, err := s.Add(f)
		if err != nil {
			return added, fmt.Errorf("record %d: %w", i, err)
		}
		if ok {
			added++
		}
	}
	return added, nil
}

// AddResult is one record's outcome within an AddBatch: exactly the (bool,
// error) an equivalent Add call would have returned.
type AddResult struct {
	// Stored is true for a newly inserted record, false for a duplicate.
	Stored bool
	// Err is the record's failure (validation error, or ErrEvicted for a
	// write to a server that could not be faulted back in). A failed record
	// never affects its batch siblings.
	Err error
}

// AddBatch inserts records through Apply: the []Feedback edge of the write
// path (AddRecords). Results[i] reports recs[i]'s outcome, with the same
// semantics as len(recs) sequential Add calls.
func (s *Store) AddBatch(recs []feedback.Feedback, workers int) []AddResult {
	return AddRecords(recs, func(b *feedback.Batch) []AddResult { return s.Apply(b, workers) })
}

// AddRecords is the []Feedback edge of a batch write: it packs recs' valid
// records into one batch for apply and reports per record of recs, a record
// Validate refuses failing its own slot.
func AddRecords(recs []feedback.Feedback, apply func(*feedback.Batch) []AddResult) []AddResult {
	b, errs := feedback.Pack(recs)
	res := apply(b)
	for i, err := range errs { // errs is nil when every record is valid
		if err != nil {
			res = slices.Insert(res, i, AddResult{Err: err})
		}
	}
	return res
}

// Apply inserts b's records one server run — a stretch of consecutive
// records of one server — at a time, each shard's runs under one
// acquisition of its lock, the shards fanned out across at most workers
// goroutines (FanOut). Results[i] reports record i with the semantics of
// b.Len() sequential Add calls: a server's records go in in batch order.
// Eviction pressure is resolved once at the end.
func (s *Store) Apply(b *feedback.Batch, workers int) []AddResult {
	results := make([]AddResult, b.Len())
	shardOf := make([]int, len(b.Servers())) // server ref → shard index + 1
	runs := make([][][2]int, len(s.shards))  // by shard, in batch order
	for lo, hi := 0, 0; lo < b.Len(); lo = hi {
		r := b.ServerRef(lo)
		for hi = lo + 1; hi < b.Len() && b.ServerRef(hi) == r; hi++ {
		}
		if shardOf[r] == 0 {
			shardOf[r] = s.ShardIndex(b.Servers()[r]) + 1
		}
		runs[shardOf[r]-1] = append(runs[shardOf[r]-1], [2]int{lo, hi})
	}
	runs = slices.DeleteFunc(runs, func(rs [][2]int) bool { return len(rs) == 0 })
	FanOut(len(runs), workers, func() func(int) {
		slots := make([]uint32, len(b.Clients()))
		return func(i int) { s.applyRuns(b, runs[i], results, slots) }
	})
	if slices.ContainsFunc(results, func(r AddResult) bool { return r.Stored }) {
		s.maybeEvict()
	}
	return results
}

// FanOut calls, for each i in [0, n), the function worker returns: one
// per goroutine, at most workers of them (workers <= 0 means GOMAXPROCS),
// the caller's among them.
func FanOut(n, workers int, worker func() func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	run := func() {
		do := worker()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			do(i)
		}
	}
	var wg sync.WaitGroup
	for range min(workers, n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	if n > 0 {
		run()
	}
	wg.Wait()
}

// applyRuns inserts runs, the runs of b whose servers one shard holds,
// under one acquisition of its write lock. A run addressed to an evicted
// server is applied again, in batch order, once a fault-in — waiting
// without a context — made the server resident, up to maxFaultAttempts
// times.
func (s *Store) applyRuns(b *feedback.Batch, runs [][2]int, results []AddResult, slots []uint32) {
	sh := s.shardOf(b.Servers()[b.ServerRef(runs[0][0])])
	for attempt := 0; len(runs) > 0; attempt++ {
		var stubs [][2]int
		sh.mu.Lock()
		for _, run := range runs {
			if s.insertRun(sh, b, run[0], run[1], results, slots) {
				stubs = append(stubs, run)
			}
		}
		sh.mu.Unlock()
		runs = stubs[:0]
		for _, run := range stubs {
			if err := s.faultIn(context.Background(), b.Servers()[b.ServerRef(run[0])], attempt); err != nil {
				for i := run[0]; i < run[1]; i++ {
					results[i].Err = err
				}
			} else {
				runs = append(runs, run)
			}
		}
	}
}

// insertRun inserts the records [lo, hi) of b, one server's, under its
// shard's write lock; it reports a stub, which cannot accept writes: its
// records, the dedup index, are gone. slots, zero on entry and on return,
// caches the history's slot + 1 of each client ref the run meets, so a
// client is interned once per run.
func (s *Store) insertRun(sh *shard, b *feedback.Batch, lo, hi int, results []AddResult, slots []uint32) bool {
	server := b.Servers()[b.ServerRef(lo)]
	e := sh.byServ[server]
	if e == nil {
		e = &entry{hist: feedback.NewHistory(server)}
		sh.byServ[server] = e
		s.residentCount.Add(1)
	} else if e.hist == nil {
		return true
	}
	h, added := e.hist, 0
	for i := lo; i < hi; i++ {
		nanos, c, hash := b.NanosAt(i), b.ClientRef(i), Hash(b.Hash(i))
		pos, dup := locate(h, nanos, hash)
		switch {
		case dup:
			continue
		case pos < h.Len():
			out, err := insertSorted(h, pos, b.At(i))
			if err != nil {
				results[i] = AddResult{Err: err}
				continue
			}
			h = out
			clear(slots) // slots of the history h replaced
		default:
			if slots[c] == 0 {
				slot, err := h.Intern(b.Clients()[c])
				if err != nil {
					results[i] = AddResult{Err: err}
					continue
				}
				slots[c] = slot + 1
			}
			h.AppendSlot(nanos, slots[c]-1, b.GoodAt(i))
		}
		results[i] = AddResult{Stored: true}
		e.sum.XOR ^= uint64(hash)
		added++
	}
	for i := lo; i < hi; i++ {
		slots[b.ClientRef(i)] = 0
	}
	if added > 0 {
		e.hist = h
		e.snap.Store(nil)
		e.sum.Count += added
		e.touched.Store(true)
		s.resizeLocked(e)
		s.total.Add(int64(added))
	}
	return false
}

// History returns the server's transaction history in time order, faulting
// an evicted server in first. It is empty (not nil) for unknown servers, and
// ErrEvicted for a server that could not be faulted back in.
//
// The returned History is a shared immutable snapshot: it costs O(1), is
// never modified by later writes, and MUST be treated read-only by the
// caller (clone before mutating).
func (s *Store) History(server feedback.EntityID) (*feedback.History, error) {
	h, _, err := s.snapshot(server)
	return h, err
}

// Snapshot returns the server's history snapshot together with its version,
// read atomically, faulting an evicted server in first. The version is 0 for
// unknown servers and increases by one with every accepted write, so equal
// versions imply identical histories. A nil history with a non-zero version
// marks a server that is evicted and could not be faulted back in (History
// says why). The same read-only contract as History applies.
func (s *Store) Snapshot(server feedback.EntityID) (*feedback.History, uint64) {
	h, v, _ := s.snapshot(server)
	return h, v
}

// snapshot is Snapshot with the fault-in's error.
func (s *Store) snapshot(server feedback.EntityID) (*feedback.History, uint64, error) {
	for attempt := 0; ; attempt++ {
		h, v := s.peek(server)
		if h != nil || v == 0 {
			return h, v, nil
		}
		if err := s.faultIn(context.Background(), server, attempt); err != nil {
			return nil, v, err
		}
	}
}

// peek is one read of server's snapshot and version, without fault-in: a
// stub answers (nil, version).
func (s *Store) peek(server feedback.EntityID) (*feedback.History, uint64) {
	sh := s.shardOf(server)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e := sh.byServ[server]
	if e == nil {
		return feedback.NewHistory(server), 0
	}
	if e.hist == nil {
		return nil, uint64(e.sum.Count)
	}
	e.touched.Store(true)
	return e.snapshot(), uint64(e.sum.Count)
}

// SetAccumulatorFactory does nothing.
//
// Deprecated: the store keeps no accumulators (ADR 0016's amendment).
func (s *Store) SetAccumulatorFactory(AccumulatorFactory) {}

// ViewAccumulator reports false without calling view.
//
// Deprecated: the store keeps no accumulators (ADR 0016's amendment).
func (s *Store) ViewAccumulator(feedback.EntityID, func(acc Accumulator, version uint64)) bool {
	return false
}

// ViewShard serves a group of servers that all live on shard idx under a
// single read-lock acquisition: view is invoked once per server, in order,
// with the position i into servers, a nil acc (see below), the server's
// memoized history snapshot, and its version. Unknown servers get (nil, 0);
// evicted servers get (nil, version) with a non-zero version — ViewResident
// faults those in. It panics if any server maps to a different shard —
// silent misrouting would report known servers as unknown.
//
// The same contract as Snapshot applies: snapshots are shared immutable
// views, and view must not call back into the store. Because the whole
// group holds the shard read lock, writes to this shard wait for the
// slowest item; callers capture the snapshot and do anything heavier after
// ViewShard returns.
//
// The acc argument is always nil: the store keeps no accumulators (ADR
// 0016's amendment), and the argument goes with the deprecated Accumulator.
func (s *Store) ViewShard(idx int, servers []feedback.EntityID, view func(i int, acc Accumulator, snap *feedback.History, version uint64)) {
	sh := &s.shards[idx]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for i, srv := range servers {
		if s.ShardIndex(srv) != idx {
			panic(fmt.Sprintf("store: ViewShard(%d) got server %q of shard %d", idx, srv, s.ShardIndex(srv)))
		}
		e := sh.byServ[srv]
		if e == nil {
			view(i, nil, nil, 0)
			continue
		}
		if e.hist == nil {
			view(i, nil, nil, uint64(e.sum.Count))
			continue
		}
		e.touched.Store(true)
		view(i, nil, e.snapshot(), uint64(e.sum.Count))
	}
}

// ViewResident is ViewShard with fault-in: view never sees an evicted
// server. Evicted servers are faulted in — a wait for another caller's load
// ends when ctx does — and viewed again, up to maxFaultAttempts times; one
// that cannot be made resident goes to fail instead. Both callbacks get the
// server's position in servers, and view runs under the shard read lock with
// ViewShard's contract; an unknown server is viewed with a nil snapshot.
func (s *Store) ViewResident(ctx context.Context, idx int, servers []feedback.EntityID,
	view func(i int, snap *feedback.History), fail func(i int, err error)) {
	var pos []int // pos[j] is where the round's j-th server sits in servers; nil on the first round (identity)
	round := servers
	for attempt := 0; len(round) > 0; attempt++ {
		var stubs []int
		s.ViewShard(idx, round, func(j int, _ Accumulator, snap *feedback.History, version uint64) {
			if pos != nil {
				j = pos[j]
			}
			if snap == nil && version > 0 {
				stubs = append(stubs, j)
				return
			}
			view(j, snap)
		})
		pos, round = nil, nil
		for _, i := range stubs {
			if err := s.faultIn(ctx, servers[i], attempt); err != nil {
				fail(i, err)
			} else {
				pos, round = append(pos, i), append(round, servers[i])
			}
		}
	}
}

// Version returns the server's current version counter: 0 when the server
// is unknown, otherwise the number of accepted writes to it. It does not
// fault an evicted server in.
func (s *Store) Version(server feedback.EntityID) uint64 {
	_, v := s.peek(server)
	return v
}

// Records returns a copy of the server's records in time order, faulting an
// evicted server in; nil when that fault-in fails.
func (s *Store) Records(server feedback.EntityID) []feedback.Feedback {
	h, _ := s.Snapshot(server)
	if h == nil {
		return nil
	}
	return h.Records()
}

// Servers returns the known server IDs, sorted.
func (s *Store) Servers() []feedback.EntityID {
	var out []feedback.EntityID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for id := range sh.byServ {
			out = append(out, id)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Len returns the total number of stored records. Records are never
// removed, so readers that derive whole-store summaries (gossip checksums)
// key on it to skip recomputation when nothing changed.
func (s *Store) Len() int { return int(s.total.Load()) }

// ServerLen returns the number of records for one server, resident or not
// (a stub remembers its count).
func (s *Store) ServerLen(server feedback.EntityID) int {
	return s.ServerChecksum(server).Count
}

// Checksum summarises one server's records: the count and the XOR of all
// content hashes. Equal checksums mean (up to hash collisions) equal record
// sets, letting gossip peers skip servers that are already in sync. It is the
// store's one record-set digest: an evicted server's stub keeps it, and a
// rebuild or a snapshot section of that server is checked against it.
type Checksum struct {
	Count int    `json:"count"`
	XOR   uint64 `json:"xor"`
}

// Checksums returns the per-server summary of the whole store. Checksums
// are maintained incrementally on write, so this costs O(servers), not
// O(records).
func (s *Store) Checksums() map[feedback.EntityID]Checksum {
	out := make(map[feedback.EntityID]Checksum)
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for srv, e := range sh.byServ {
			out[srv] = e.sum
		}
		sh.mu.RUnlock()
	}
	return out
}

// ServerChecksum returns one server's checksum in O(1): the record count
// and XOR of all content hashes, maintained incrementally on write. The
// zero Checksum means the server is unknown. Cluster nodes exchange it as a
// replica-agreement digest: equal checksums mean (up to hash collisions)
// equal record sets.
func (s *Store) ServerChecksum(server feedback.EntityID) Checksum {
	sh := s.shardOf(server)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e := sh.byServ[server]
	if e == nil {
		return Checksum{}
	}
	return e.sum
}
