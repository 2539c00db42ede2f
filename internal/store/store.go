// Package store provides the concurrent feedback store behind a reputation
// node, in the paper's central-collector deployment and, kept in step by
// anti-entropy, in the P2P one: per-server transaction histories with
// duplicate suppression and deterministic time ordering.
//
// The store is sharded by server ID, so writes against different servers
// proceed without contention, and every server carries a monotonic version
// counter bumped on each accepted write, so "history unchanged since I last
// looked" is an O(1) check. The store holds records only: no per-server
// assessment state rides beside a history (ADR 0016's amendment).
package store

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"
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

// HashOf returns the content hash of a feedback record.
func HashOf(f feedback.Feedback) Hash {
	return hashRecord(f.Time.UnixNano(), f.Rating, f.Server, f.Client)
}

// HashAt returns the content hash of h's i-th record, HashOf(h.At(i)),
// straight from the columns.
func HashAt(h *feedback.History, i int) Hash {
	return hashRecord(h.NanosAt(i), h.RatingAt(i), h.Server(), h.ClientAt(i))
}

func hashRecord(nanos int64, r feedback.Rating, server, client feedback.EntityID) Hash {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(nanos >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	_, _ = h.Write([]byte{byte(r)})
	_, _ = h.Write([]byte(server))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(client))
	return Hash(h.Sum64())
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
// memoized read snapshot, the version and a running content checksum. An
// entry is either resident (hist set)
// or an evicted stub (hist nil; version and sum stay) — see lifecycle.go.
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
	// version counts accepted writes for this server; it starts at 1 for
	// the first record so that 0 can mean "never seen".
	version uint64
	// sum is the record count and the XOR of all content hashes, maintained
	// incrementally so gossip checksums cost O(servers) instead of
	// O(records), and kept through an eviction to verify the rebuild.
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
	// global counts accepted writes store-wide; read via GlobalVersion.
	global atomic.Uint64

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
	h := fnv.New64a()
	_, _ = h.Write([]byte(server))
	return int(h.Sum64() % uint64(len(s.shards)))
}

// Add inserts a feedback record. It returns false when an identical record
// (same content hash) was already present, and an error when the record is
// invalid or its server is evicted and cannot be faulted back in
// (ErrEvicted).
func (s *Store) Add(f feedback.Feedback) (bool, error) {
	ok, err := s.addResident(f)
	if ok {
		s.maybeEvict()
	}
	return ok, err
}

// addResident is add that faults a stub in — waiting without a context —
// and applies the record again, up to maxFaultAttempts times.
func (s *Store) addResident(f feedback.Feedback) (bool, error) {
	ok, err := s.add(f)
	for attempt := 0; err == errStub; attempt++ {
		if err = s.faultIn(context.Background(), f.Server, attempt); err == nil {
			ok, err = s.add(f)
		}
	}
	return ok, err
}

func (s *Store) add(f feedback.Feedback) (bool, error) {
	if err := f.Validate(); err != nil {
		return false, err
	}
	h := HashOf(f)
	sh := s.shardOf(f.Server)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return s.addLocked(sh, f, h)
}

// addLocked is the insert body shared by add and AddBatch. The caller holds
// sh's write lock and has already validated f and computed its hash.
func (s *Store) addLocked(sh *shard, f feedback.Feedback, h Hash) (bool, error) {
	e := sh.byServ[f.Server]
	if e == nil {
		e = &entry{hist: feedback.NewHistory(f.Server)}
		sh.byServ[f.Server] = e
		s.residentCount.Add(1)
	} else if e.hist == nil {
		// A stub cannot accept writes: its records, which are the dedup
		// index, are gone. The caller faults the server in and retries.
		return false, errStub
	}
	hist, dup, err := merge(e.hist, f, h)
	if dup || err != nil {
		return false, err
	}
	e.hist = hist
	e.snap.Store(nil)
	e.version++
	e.sum.Count++
	e.sum.XOR ^= uint64(h)
	e.touched.Store(true)
	s.resizeLocked(e)
	s.total.Add(1)
	s.global.Add(1)
	return true, nil
}

// Merge puts f where it belongs in h, which is sorted by (time, hash), and
// returns the history that holds it: h itself, appended in place, when f is
// newer than every record of h, else a rebuilt copy; h is returned untouched
// when it already holds f. An invalid f, or one for another server, is an
// error. The persistence layer merges a rebuilt server's tail records with it.
func Merge(h *feedback.History, f feedback.Feedback) (*feedback.History, error) {
	out, _, err := merge(h, f, HashOf(f))
	return out, err
}

func merge(h *feedback.History, f feedback.Feedback, hash Hash) (out *feedback.History, dup bool, err error) {
	pos, dup := locate(h, f.Time.UnixNano(), hash)
	if dup {
		return h, true, nil
	}
	if pos < h.Len() {
		out, err = insertSorted(h, pos, f)
		return out, false, err
	}
	// Append fast path: in-place, amortised O(1). Outstanding snapshots are
	// unaffected — the append writes past their length.
	return h, false, h.Append(f)
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

// addGroup is the unit of batch-insert fan-out: the batch positions of all
// records living on one shard, in batch order. Grouping is what lets the
// batch apply a whole shard's records — dedup, history, version — under a
// single write-lock acquisition. stubs is set when one of the
// group's records met an evicted server.
type addGroup struct {
	sh     *shard
	pos    []int
	hashes []Hash
	stubs  bool
}

// AddBatch inserts records grouped by shard: records of the same shard are
// applied in batch order under one shard-lock acquisition, and the shard
// groups are fanned out across at most workers goroutines (workers <= 0
// means GOMAXPROCS). Results[i] always reports Records[i]'s outcome, with
// the same semantics as len(recs) sequential Add calls: the insert order
// within a shard is the batch order, so dedup state ends up identical. A record addressed to an evicted server is applied again, in
// batch order, once Add's fault-in made the server resident. Eviction
// pressure is resolved once at the end, like Add does after its insert.
func (s *Store) AddBatch(recs []feedback.Feedback, workers int) []AddResult {
	results := make([]AddResult, len(recs))
	byShard := make(map[*shard]*addGroup)
	groups := make([]*addGroup, 0, len(s.shards))
	for i, f := range recs {
		if err := f.Validate(); err != nil {
			results[i].Err = err
			continue
		}
		sh := s.shardOf(f.Server)
		g := byShard[sh]
		if g == nil {
			g = &addGroup{sh: sh}
			byShard[sh] = g
			groups = append(groups, g)
		}
		g.pos = append(g.pos, i)
		g.hashes = append(g.hashes, HashOf(f))
	}

	apply := func(g *addGroup) {
		g.sh.mu.Lock()
		defer g.sh.mu.Unlock()
		for j, i := range g.pos {
			results[i].Stored, results[i].Err = s.addLocked(g.sh, recs[i], g.hashes[j])
			g.stubs = g.stubs || results[i].Err == errStub
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(groups) {
		workers = len(groups)
	}
	if workers <= 1 {
		for _, g := range groups {
			apply(g)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(groups) {
						return
					}
					apply(groups[i])
				}
			}()
		}
		wg.Wait()
	}
	for _, g := range groups {
		if !g.stubs {
			continue
		}
		for _, i := range g.pos {
			if results[i].Err == errStub {
				results[i].Stored, results[i].Err = s.addResident(recs[i])
			}
		}
	}

	for i := range results {
		if results[i].Stored {
			s.maybeEvict()
			break
		}
	}
	return results
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
		return nil, e.version
	}
	e.touched.Store(true)
	return e.snapshot(), e.version
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
			view(i, nil, nil, e.version)
			continue
		}
		e.touched.Store(true)
		view(i, nil, e.snapshot(), e.version)
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

// GlobalVersion counts accepted writes store-wide. Readers that derive
// whole-store summaries (gossip checksums) use it to skip recomputation
// when nothing changed.
func (s *Store) GlobalVersion() uint64 { return s.global.Load() }

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

// Len returns the total number of stored records.
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
