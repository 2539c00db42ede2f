package repserver

// Fault-in: transparently rebuilding evicted server state on the read path.
// Under a memory budget the store evicts idle servers to compact stubs; a
// request touching one (nil snapshot, non-zero version) triggers a rebuild
// through Config.Rebuilder and retries. Rebuilds are single-flighted per
// server — one leader calls RebuildServer, concurrent requests for the same
// server wait for it — so an eviction storm costs one snapshot-section read
// per server, not one per request.

import (
	"context"

	"honestplayer/internal/feedback"
	"honestplayer/internal/service"
	"honestplayer/internal/store"
	"honestplayer/internal/wire"
)

// Rebuilder reconstructs one evicted server's resident state from durable
// storage. ledger.PersistentStore implements it; deployments without a
// memory budget leave Config.Rebuilder nil and never hit this path.
type Rebuilder interface {
	RebuildServer(feedback.EntityID) error
}

// maxFaultAttempts bounds the evict/rebuild retry loop of one request. A
// server re-evicted this many times within a single request means the budget
// is far too small for the working set (eviction thrash); failing the
// request is more honest than spinning.
const maxFaultAttempts = 4

// faultIn makes one attempt to reinstate server, single-flighted: the first
// caller becomes the leader and runs the rebuild, concurrent callers wait
// for its completion (or their own context). A nil return means a rebuild
// finished — the caller must re-check residency, since the leader may have
// failed or the server may have been evicted again.
func (s *Server) faultIn(ctx context.Context, server feedback.EntityID) error {
	rb := s.cfg.Rebuilder
	if rb == nil {
		// Evicted state with no way to rebuild it: only possible when the
		// store got a budget without the persistence layer attached — a
		// wiring bug, reported as such rather than "unknown server".
		return service.Errorf(wire.CodeUnavailable,
			"server %q is evicted and no rebuilder is configured", server)
	}
	s.faultMu.Lock()
	if ch, ok := s.faultWait[string(server)]; ok {
		s.faultMu.Unlock()
		s.nFaultWaits.Add(1)
		select {
		case <-ch:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ch := make(chan struct{})
	if s.faultWait == nil {
		s.faultWait = make(map[string]chan struct{})
	}
	s.faultWait[string(server)] = ch
	s.faultMu.Unlock()

	err := rb.RebuildServer(server)

	s.faultMu.Lock()
	delete(s.faultWait, string(server))
	s.faultMu.Unlock()
	close(ch)
	if err != nil {
		s.nFaultErrors.Add(1)
		return service.Errorf(wire.CodeUnavailable, "fault-in of %q: %v", server, err)
	}
	s.nFaultIns.Add(1)
	return nil
}

// viewResident is Store.ViewShard with fault-in: view never sees an evicted
// server. Evicted servers are rebuilt and viewed again, up to
// maxFaultAttempts; one that cannot be made resident goes to fail instead.
// Both callbacks get the server's position in servers, and view runs under
// the shard read lock with ViewShard's contract.
func (s *Server) viewResident(ctx context.Context, shard int, servers []feedback.EntityID,
	view func(i int, acc store.Accumulator, snap *feedback.History, version uint64),
	fail func(i int, err error)) {
	var pos []int // pos[j] is where the round's j-th server sits in servers; nil on the first round (identity)
	round := servers
	for attempt := 0; len(round) > 0; attempt++ {
		var evicted []int
		s.cfg.Store.ViewShard(shard, round, func(j int, acc store.Accumulator, snap *feedback.History, version uint64) {
			if pos != nil {
				j = pos[j]
			}
			if snap == nil && version > 0 {
				evicted = append(evicted, j)
				return
			}
			view(j, acc, snap, version)
		})
		var again []int
		round = nil
		for _, i := range evicted {
			if attempt == maxFaultAttempts {
				fail(i, service.Errorf(wire.CodeUnavailable,
					"server %q: evicted again after %d rebuilds (memory budget too small for working set)",
					servers[i], attempt))
			} else if err := s.faultIn(ctx, servers[i]); err != nil {
				fail(i, err)
			} else {
				again, round = append(again, i), append(round, servers[i])
			}
		}
		pos = again
	}
}
