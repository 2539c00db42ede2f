package store

// Resident ↔ evicted lifecycle: the memory-budget governor. Every entry
// self-reports its resident footprint (history bytes + accumulator bytes,
// see Accumulator.SizeBytes and feedback.History.SizeBytes); the store keeps
// the node-wide sum and, when a budget is set, evicts idle servers down to a
// compact stub — version counter and Checksum (record count and XOR digest)
// — until the sum fits. Evicted state is NOT lost: the persistence layer
// rebuilds a server from its snapshot + tail segments on the next access
// (rebuild-on-demand), and ReinstateServer verifies the rebuilt records
// against the stub's Checksum before swapping them back in. Eviction without
// a persistence layer underneath loses records; only enable a budget on
// stores whose writes are ledgered.
//
// Victim selection is a clock (second-chance) sweep: reads and writes set a
// touched bit, and the sweep walks shards in rotation with three escalating
// passes — preferred victims (e.g. servers a cluster node does not own) that
// are idle, then any idle server, then anyone unpinned. An evict guard lets
// the persistence layer pin servers whose newest write is still in flight to
// the ledger, so a rebuild can never miss an accepted record.

import (
	"errors"
	"fmt"
	"sort"

	"honestplayer/internal/feedback"
	"honestplayer/internal/metrics"
)

// ErrEvicted reports an operation against a server whose resident state was
// evicted to a stub. The caller must fault the server back in (rebuild +
// ReinstateServer) and retry; the serving layer does this transparently.
var ErrEvicted = errors.New("store: server state evicted")

// entryOverhead is the accounted fixed cost of one resident entry beyond the
// self-reported sizes: the entry struct (80 B), its byServ map slot (~40 B),
// the server ID's bytes, and the memoized read view (160 B). Dedup costs
// nothing extra — the history is the index.
const entryOverhead = 288

// EvictGuard reports whether a server is temporarily unevictable. The
// persistence layer pins servers between accepting a write into the store
// and making it durable in the ledger; evicting inside that window would
// build a stub whose records cannot all be rebuilt yet.
type EvictGuard func(server feedback.EntityID) bool

// EvictPreference reports whether a server is a preferred eviction victim.
// A cluster node prefers evicting servers outside its replica sets, so owned
// servers stay resident as long as the budget allows.
type EvictPreference func(server feedback.EntityID) bool

// Stub is the exported form of an evicted server's compact state, enough to
// verify a rebuild against: the Checksum pins the exact record set, and the
// version keeps assessment-cache keys comparable across the eviction.
type Stub struct {
	Server feedback.EntityID
	Checksum
	Version uint64
}

// RegisterMetrics declares the governor's part of the lifecycle block in reg
// — resident and evicted servers, the resident and shared bytes that count
// against the budget (0 = unlimited), evictions and reinstates — and, under a
// budget, top_resident, the ten largest resident servers.
func (s *Store) RegisterMetrics(reg *metrics.Registry) {
	reg.Gauge("lifecycle.resident", func() any { return s.residentCount.Load() })
	reg.Gauge("lifecycle.evicted", func() any { return s.evictedCount.Load() })
	reg.Gauge("lifecycle.resident_bytes", func() any { return s.residentBytes.Load() })
	reg.Gauge("lifecycle.shared_bytes", func() any { return s.sharedBytes() })
	reg.Gauge("lifecycle.budget_bytes", func() any { return s.budget.Load() })
	reg.Counter("lifecycle.evictions", &s.evictions)
	reg.Counter("lifecycle.reinstates", &s.reinstates)
	reg.Gauge("top_resident", func() any {
		if s.budget.Load() <= 0 {
			return nil
		}
		if top := s.TopResident(10); len(top) > 0 {
			return top
		}
		return nil
	})
}

// ResidentBytes returns the accounted footprint of all resident server state.
func (s *Store) ResidentBytes() int64 { return s.residentBytes.Load() }

// SetBudget installs the node-wide resident-byte budget; 0 or negative means
// unlimited. Once set, every write that pushes the accounted footprint over
// the budget synchronously evicts idle servers back under it, so the peak
// accounted footprint never exceeds the budget by more than the write that
// triggered enforcement. Only set a budget when a persistence layer can
// rebuild evicted servers.
func (s *Store) SetBudget(bytes int64) {
	s.budget.Store(bytes)
	s.maybeEvict()
}

// SetSharedBytes installs the reporter of memory that serves every resident
// server at once — the assessor's memo state — and therefore sits in no
// server's accounted size. The governor charges it against the budget as a
// term eviction cannot shrink: servers are evicted until their accounted
// bytes fit in what the shared bytes leave. A nil reporter charges nothing.
func (s *Store) SetSharedBytes(fn func() int64) {
	if fn == nil {
		s.shared.Store(nil)
		return
	}
	s.shared.Store(&fn)
}

func (s *Store) sharedBytes() int64 {
	if fn := s.shared.Load(); fn != nil {
		return (*fn)()
	}
	return 0
}

// SetEvictGuard installs the pin check consulted (under the shard lock)
// before each eviction. A nil guard pins nothing.
func (s *Store) SetEvictGuard(g EvictGuard) {
	if g == nil {
		s.evictGuard.Store(nil)
		return
	}
	s.evictGuard.Store(&g)
}

// SetEvictPreference installs the preferred-victim check used by the sweep's
// first pass. A nil preference makes the first pass a no-op.
func (s *Store) SetEvictPreference(p EvictPreference) {
	if p == nil {
		s.evictPref.Store(nil)
		return
	}
	s.evictPref.Store(&p)
}

// maybeEvict runs budget enforcement when the accounted footprint exceeds a
// configured budget. Enforcement is serialised on evictMu, so concurrent
// writers past the budget act as backpressure: they queue behind the sweep
// instead of racing it.
func (s *Store) maybeEvict() {
	b := s.budget.Load()
	if b <= 0 {
		return
	}
	if b -= s.sharedBytes(); s.residentBytes.Load() > b {
		s.EvictUntil(b)
	}
}

// EvictUntil evicts idle servers until the accounted resident footprint is
// at most budget, returning how many servers it evicted. Victims drop their
// history (with it, their dedup index), memoized snapshot and accumulator,
// keeping only the compact stub. The sweep escalates through three passes — idle
// preferred victims, any idle server, then any unpinned server — and walks
// shards in rotation from where the previous sweep stopped, clearing touched
// bits as it passes (clock / second chance).
func (s *Store) EvictUntil(budget int64) int {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	if s.residentBytes.Load() <= budget {
		return 0
	}
	var guard EvictGuard
	if g := s.evictGuard.Load(); g != nil {
		guard = *g
	}
	var pref EvictPreference
	if p := s.evictPref.Load(); p != nil {
		pref = *p
	}
	evicted := 0
	for pass := 0; pass < 3 && s.residentBytes.Load() > budget; pass++ {
		if pass == 0 && pref == nil {
			continue
		}
		for i := 0; i < len(s.shards) && s.residentBytes.Load() > budget; i++ {
			idx := (s.clock + i) % len(s.shards)
			sh := &s.shards[idx]
			sh.mu.Lock()
			for srv, e := range sh.byServ {
				if s.residentBytes.Load() <= budget {
					break
				}
				if e.hist == nil {
					continue // already a stub
				}
				if guard != nil && guard(srv) {
					continue // write in flight to the ledger
				}
				switch pass {
				case 0:
					if !pref(srv) || e.touched.Load() {
						continue
					}
				case 1:
					// Second chance: a server read or written since the last
					// sweep survives this pass but loses its bit.
					if e.touched.Swap(false) {
						continue
					}
				}
				s.evictLocked(e)
				evicted++
			}
			sh.mu.Unlock()
		}
	}
	s.clock = (s.clock + 1) % len(s.shards)
	return evicted
}

// evictLocked drops e to a stub. The caller holds the shard's write lock and
// e must be resident. The history is the server's dedup index, so that goes
// with it; duplicate suppression stays airtight because writes against a
// stub are refused with ErrEvicted until the server is faulted back in.
func (s *Store) evictLocked(e *entry) {
	e.hist = nil
	e.snap.Store(nil)
	if e.acc != nil {
		e.acc = nil
		s.accTracked.Add(-1)
	}
	s.residentBytes.Add(-int64(e.sizeBytes))
	e.sizeBytes = 0
	s.residentCount.Add(-1)
	s.evictedCount.Add(1)
	s.evictions.Add(1)
}

// EvictServer evicts one server by ID regardless of budget and touch state
// (the guard still applies). It returns false when the server is unknown,
// already evicted, or pinned. Tests and the persistence layer's shutdown
// path use it; budget enforcement goes through EvictUntil.
func (s *Store) EvictServer(server feedback.EntityID) bool {
	var guard EvictGuard
	if g := s.evictGuard.Load(); g != nil {
		guard = *g
	}
	sh := s.shardOf(server)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.byServ[server]
	if e == nil || e.hist == nil || (guard != nil && guard(server)) {
		return false
	}
	s.evictLocked(e)
	return true
}

// StubOf returns the compact stub of an evicted server; ok is false when the
// server is unknown or resident.
func (s *Store) StubOf(server feedback.EntityID) (Stub, bool) {
	sh := s.shardOf(server)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	e := sh.byServ[server]
	if e == nil || e.hist != nil {
		return Stub{}, false
	}
	return Stub{Server: server, Checksum: e.sum, Version: e.version}, true
}

// ReinstateServer swaps a rebuilt history back into an evicted server's
// slot, taking ownership of it, and replays it into a factory-minted
// accumulator as SeedServer does. The rebuild is verified against the stub
// before anything is committed: its Checksum must be the one that was
// evicted, making a reinstated server bit-identical to one that never left.
// The preserved version counter keeps assessment-cache entries valid across
// the round-trip. Reinstating an already-resident server is a no-op
// (concurrent fault-ins race benignly); reinstating an unknown server is an
// error.
//
// hist's records must strictly increase in (time, hash), as Add would have
// stored them.
func (s *Store) ReinstateServer(hist *feedback.History) error {
	if err := s.reinstate(hist); err != nil {
		return fmt.Errorf("store: reinstate of %q: %w", hist.Server(), err)
	}
	s.maybeEvict()
	return nil
}

func (s *Store) reinstate(hist *feedback.History) error {
	sh := s.shardOf(hist.Server())
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.byServ[hist.Server()]
	if e == nil {
		return errors.New("unknown server")
	}
	if e.hist != nil {
		return nil // already resident
	}
	sum, err := DigestSorted(hist)
	if err != nil {
		return err
	}
	if sum != e.sum {
		return fmt.Errorf("rebuilt records %+v, stub has %+v", sum, e.sum)
	}
	e.hist = hist
	s.adoptLocked(e)
	s.evictedCount.Add(-1)
	s.reinstates.Add(1)
	return nil
}

// resizeLocked re-derives e's accounted size after a mutation and folds the
// delta into the node-wide total. The caller holds the shard write lock and
// e must be resident.
func (s *Store) resizeLocked(e *entry) {
	n := entryOverhead + e.hist.SizeBytes()
	if e.acc != nil {
		n += e.acc.SizeBytes()
	}
	s.residentBytes.Add(int64(n - e.sizeBytes))
	e.sizeBytes = n
}

// ResidentSize names one resident server and its accounted footprint.
type ResidentSize struct {
	Server  feedback.EntityID `json:"server"`
	Bytes   int               `json:"bytes"`
	Records int               `json:"records"`
}

// TopResident returns the k largest resident servers by accounted bytes,
// descending (ties by server ID). It walks every shard under its read lock;
// it is an operator-tooling path (trustctl mem-status), not a serving path.
func (s *Store) TopResident(k int) []ResidentSize {
	if k <= 0 {
		return nil
	}
	var all []ResidentSize
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for srv, e := range sh.byServ {
			if e.hist == nil {
				continue
			}
			all = append(all, ResidentSize{Server: srv, Bytes: e.sizeBytes, Records: e.hist.Len()})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Bytes != all[j].Bytes {
			return all[i].Bytes > all[j].Bytes
		}
		return all[i].Server < all[j].Server
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}
