package store

// Bulk seeding and shard iteration for the persistence layer: snapshot boot
// loads whole per-server histories in one shot instead of paying Add's
// per-record lookup/ordering machinery, and the snapshot writer walks shards
// under their read locks.

import (
	"fmt"
	"sort"

	"honestplayer/internal/feedback"
)

// SeedServer bulk-loads one server's complete history, as decoded from a
// verified snapshot, and takes ownership of it. Its records must strictly
// increase in (time, hash) — the order and uniqueness Add would have
// produced — and the server must not already hold records; violations are
// reported as errors, and leave the store as it was, so the caller can fall
// back to a full replay.
func (s *Store) SeedServer(hist *feedback.History) error {
	if hist.Len() == 0 {
		return nil
	}
	server := hist.Server()
	sh := s.shardOf(server)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.byServ[server] != nil {
		return fmt.Errorf("store: seed of %q: server already has records", server)
	}
	sum, err := DigestSorted(hist)
	if err != nil {
		return fmt.Errorf("store: seed of %q: %w", server, err)
	}
	e := &entry{hist: hist, version: uint64(hist.Len()), sum: sum}
	s.adoptLocked(e)
	sh.byServ[server] = e
	s.total.Add(int64(hist.Len()))
	s.global.Add(uint64(hist.Len()))
	return nil
}

// adoptLocked makes e, whose history was just loaded whole, resident.
func (s *Store) adoptLocked(e *entry) {
	e.touched.Store(true)
	s.resizeLocked(e)
	s.residentCount.Add(1)
}

// DigestSorted returns h's Checksum after checking that (time, hash)
// strictly increases from one record to the next: what Add guarantees,
// sorted and no record twice, verified over the columns without a dedup set.
func DigestSorted(h *feedback.History) (Checksum, error) {
	sum := Checksum{Count: h.Len()}
	var prev Hash
	for i := 0; i < h.Len(); i++ {
		hash := HashAt(h, i)
		if i > 0 {
			if a, b := h.NanosAt(i-1), h.NanosAt(i); a > b || a == b && prev >= hash {
				return Checksum{}, fmt.Errorf("record %d: out of order or duplicate", i)
			}
		}
		sum.XOR ^= uint64(hash)
		prev = hash
	}
	return sum, nil
}

// ShardEntry is one server's state as seen by a SnapshotShard walk. Snap is
// the memoized immutable history view — nil for an evicted stub, whose
// records the walker must source from durable storage instead and check
// against the Checksum (see lifecycle.go). The Checksum is valid for
// resident and evicted entries alike; SizeBytes is the accounted resident
// footprint (0 for stubs).
type ShardEntry struct {
	Server feedback.EntityID
	Snap   *feedback.History
	Checksum
	Version   uint64
	SizeBytes int
}

// SnapshotShard walks every server of shard idx under the shard's read lock,
// in sorted server order. The usual read contracts apply: the snapshot is a
// shared immutable view, and view must not call back into the store. Writes
// to this shard wait for the walk, so view should only capture snapshot
// pointers and defer heavy encoding work. The walk does not set touched bits:
// a background snapshot must not make every server look recently used to
// the eviction sweep.
func (s *Store) SnapshotShard(idx int, view func(ShardEntry)) {
	sh := &s.shards[idx]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	servers := make([]feedback.EntityID, 0, len(sh.byServ))
	for srv := range sh.byServ {
		servers = append(servers, srv)
	}
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	for _, srv := range servers {
		e := sh.byServ[srv]
		ent := ShardEntry{Server: srv, Checksum: e.sum, Version: e.version, SizeBytes: e.sizeBytes}
		if e.hist != nil {
			ent.Snap = e.snapshot()
		}
		view(ent)
	}
}
