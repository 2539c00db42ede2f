package store

// Resident ↔ evicted lifecycle: the memory-budget governor. Every entry
// self-reports its resident footprint (its history's bytes, see
// feedback.History.SizeBytes, plus a fixed overhead); the store keeps
// the node-wide sum and, when a budget is set, evicts idle servers down to a
// compact stub — its Checksum (record count, which is its version, and XOR
// digest) — until the sum fits. Evicted state is NOT lost: the budget comes with a
// Loader, the persistence layer's rebuild of one server from its snapshot
// and tail, and every entry point that meets a stub faults it back in
// through that loader (see faultIn) — verified against the stub's Checksum —
// and retries, so callers never see a stub. Without a loader nothing is
// evicted.
//
// Victim selection is a clock (second-chance) sweep: reads and writes set a
// touched bit, and the sweep walks shards in rotation with three escalating
// passes — preferred victims (e.g. servers a cluster node does not own) that
// are idle, then any idle server, then anyone unpinned. An evict guard lets
// the persistence layer pin servers whose newest write is still in flight to
// the ledger, so a rebuild can never miss an accepted record.

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"honestplayer/internal/feedback"
	"honestplayer/internal/metrics"
)

// ErrEvicted reports a server whose state is evicted and could not be
// faulted back in: its loader failed, returned records that do not match its
// stub, or the server was evicted again as often as one operation retries.
var ErrEvicted = errors.New("store: server state evicted")

// maxFaultAttempts bounds the fault-in retries of one operation. A server
// evicted again this many times within it means the budget is far too small
// for the working set (eviction thrash); failing is more honest than
// spinning.
const maxFaultAttempts = 4

// Loader rebuilds an evicted server's complete history from durable storage,
// in store order. ledger.PersistentStore's snapshot-plus-tail gather is the
// one in use; the store checks what it returns against the stub's Checksum.
type Loader func(server feedback.EntityID) (*feedback.History, error)

// entryOverhead is a resident entry's cost beyond its history's SizeBytes on
// 64-bit platforms (TestEntryOverheadTerms): the entry, 48 B; its byServ slot
// (a 24-B key and pointer, Swiss table 7/16–7/8 full), ~40 B; the server ID's
// bytes, 16 B; the read view, a 280-B feedback.History in the 288-B class.
const entryOverhead = 48 + 40 + 16 + 288

// EvictGuard reports whether a server is temporarily unevictable. The
// persistence layer pins servers between accepting a write into the store
// and making it durable in the ledger; evicting inside that window would
// build a stub whose records cannot all be rebuilt yet.
type EvictGuard func(server feedback.EntityID) bool

// EvictPreference reports whether a server is a preferred eviction victim.
// A cluster node prefers evicting servers outside its replica sets, so owned
// servers stay resident as long as the budget allows.
type EvictPreference func(server feedback.EntityID) bool

// RegisterMetrics declares the lifecycle block in reg — whether a loader is
// installed, resident and evicted servers, the resident bytes and the
// budget they count against (0 = unlimited), evictions, reinstates (one
// per completed fault-in), fault-ins that waited on another caller's load of
// the same server, and fault-ins that failed — and, under a budget,
// top_resident, the ten largest resident servers.
func (s *Store) RegisterMetrics(reg *metrics.Registry) {
	reg.Gauge("lifecycle.enabled", func() any { return s.loader.Load() != nil })
	reg.Gauge("lifecycle.resident", func() any { return s.residentCount.Load() })
	reg.Gauge("lifecycle.evicted", func() any { return s.evictedCount.Load() })
	reg.Gauge("lifecycle.resident_bytes", func() any { return s.residentBytes.Load() })
	reg.Gauge("lifecycle.budget_bytes", func() any { return s.budget.Load() })
	reg.Counter("lifecycle.evictions", &s.evictions)
	reg.Counter("lifecycle.reinstates", &s.reinstates)
	reg.Counter("lifecycle.fault_waits", &s.faultWaits)
	reg.Counter("lifecycle.fault_errors", &s.faultErrors)
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

// SetBudget installs the node-wide resident-byte budget, 0 or negative
// meaning unlimited, together with the loader that brings an evicted server
// back. Once set, every write that pushes the accounted footprint over the
// budget synchronously evicts idle servers back under it, so the peak
// accounted footprint never exceeds the budget by more than the write that
// triggered enforcement. Eviction needs a loader: until one is installed
// nothing is evicted, and a nil load leaves an installed one in place, so a
// stub can always be loaded back.
func (s *Store) SetBudget(bytes int64, load Loader) {
	if load != nil {
		s.loader.Store(&load)
	}
	s.budget.Store(bytes)
	s.maybeEvict()
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
	if s.residentBytes.Load() > b {
		s.EvictUntil(b)
	}
}

// EvictUntil evicts idle servers until the accounted resident footprint is
// at most budget, returning how many servers it evicted; without a loader it
// evicts none. Victims drop their history (with it, their dedup index),
// memoized snapshot, keeping only the compact stub. The sweep
// escalates through three passes — idle preferred victims, any idle server,
// then any unpinned server — clearing touched bits as it passes (clock /
// second chance). Each pass walks the shards in rotation from the sweep's
// start shard, which advances by one shard per sweep.
func (s *Store) EvictUntil(budget int64) int {
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	if s.residentBytes.Load() <= budget || s.loader.Load() == nil {
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
// stub are faulted in before they are applied.
func (s *Store) evictLocked(e *entry) {
	e.hist = nil
	e.snap.Store(nil)
	s.residentBytes.Add(-int64(e.sizeBytes))
	e.sizeBytes = 0
	s.residentCount.Add(-1)
	s.evictedCount.Add(1)
	s.evictions.Add(1)
}

// EvictServer evicts one server by ID regardless of budget and touch state
// (the guard still applies). It returns false when no loader is installed or
// the server is unknown, already evicted, or pinned. Tests use it; budget
// enforcement goes through EvictUntil.
func (s *Store) EvictServer(server feedback.EntityID) bool {
	if s.loader.Load() == nil {
		return false
	}
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

// fault is one in-flight load of an evicted server; err is set before done
// closes.
type fault struct {
	done chan struct{}
	err  error
}

// faultIn makes one attempt to load an evicted server back, single-flighted
// per server: the first caller runs the loader outside every shard lock and
// reinstates what it returns; callers arriving meanwhile wait for that load,
// or until ctx is done, and share its result. A nil error means a load
// finished and the caller must look again: the server may have been evicted
// again since. attempt counts the caller's earlier fault-ins of server; at
// maxFaultAttempts it gives up.
func (s *Store) faultIn(ctx context.Context, server feedback.EntityID, attempt int) error {
	if attempt == maxFaultAttempts {
		return fmt.Errorf("%w: %q evicted again after %d fault-ins (memory budget too small for the working set)",
			ErrEvicted, server, attempt)
	}
	s.faultMu.Lock()
	if f, ok := s.faults[server]; ok {
		s.faultMu.Unlock()
		s.faultWaits.Add(1)
		select {
		case <-f.done:
			return f.err
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	f := &fault{done: make(chan struct{})}
	if s.faults == nil {
		s.faults = make(map[feedback.EntityID]*fault)
	}
	s.faults[server] = f
	s.faultMu.Unlock()

	hist, err := (*s.loader.Load())(server)
	if err == nil {
		err = s.reinstate(server, hist)
	}
	if err != nil {
		s.faultErrors.Add(1)
		f.err = fmt.Errorf("%w: fault-in of %q: %w", ErrEvicted, server, err)
	}
	s.faultMu.Lock()
	delete(s.faults, server)
	s.faultMu.Unlock()
	close(f.done)
	if err == nil {
		s.maybeEvict()
	}
	return f.err
}

// reinstate swaps a loaded history back into server's stub, taking ownership
// of it, as SeedServer does. The history is verified first: its records must strictly increase in
// (time, hash), as Add would have stored them, and its Checksum must be the
// stub's, making a reinstated server bit-identical to one that never left;
// its version, the stub's record count, is kept across the round-trip. A server found
// resident is left alone.
func (s *Store) reinstate(server feedback.EntityID, hist *feedback.History) error {
	if hist.Server() != server {
		return fmt.Errorf("loaded the history of %q", hist.Server())
	}
	sh := s.shardOf(server)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e := sh.byServ[server]
	if e.hist != nil {
		return nil
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
