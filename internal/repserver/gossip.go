package repserver

// Anti-entropy, the responder half (the initiator is internal/gossip, a
// client of this listener): gossip.summary is an ordinary request in the
// service pipeline — recovery, metrics, deadline, drain, either codec — and
// reads histories from the store, which faults an evicted server in.
// Summary and SeedBatch, the node's own reconciler's local read and write,
// make *Server a gossip.Node.

import (
	"context"
	"slices"
	"sort"

	"honestplayer/internal/feedback"
	"honestplayer/internal/store"
	"honestplayer/internal/wire"
)

// Summary returns the per-server checksums of the local store, restricted
// on a clustered node to the servers in its replica sets, so partitioned
// ownership is preserved under repair. The store bumps its global version
// on every accepted write, so an unchanged version means the previous
// summary is still exact and is returned as-is — the steady-state
// (converged) case, for the rounds this node initiates and the ones it
// answers alike. The returned map is shared; treat it as read-only.
func (s *Server) Summary() map[string]store.Checksum {
	v := s.cfg.Store.GlobalVersion()
	s.sumMu.Lock()
	defer s.sumMu.Unlock()
	if s.sums != nil && s.sumVersion == v {
		return s.sums
	}
	cl := s.clusterRef.Load()
	sums := s.cfg.Store.Checksums()
	m := make(map[string]store.Checksum, len(sums))
	for srv, cs := range sums {
		if cl == nil || cl.Owns(srv) {
			m[string(srv)] = cs
		}
	}
	// Writes that landed while we walked the store make the summary fresher
	// than v; stamping v just means the next call recomputes. Conservative
	// and correct.
	s.sumVersion, s.sums = v, m
	return m
}

// gossipSummary answers a peer's summary: the servers whose checksum here
// differs from the peer's, or that it lacks, and on a cluster whose replica
// sets hold the peer; and the whole histories of as many of them, in that
// order, as fit maxHistoryChunk records, at least one. The rest stay stale
// for the peer's next round.
func (s *Server) gossipSummary(ctx context.Context, req wire.SummaryMsg) (wire.SummaryResp, error) {
	cl := s.clusterRef.Load()
	var stale []string
	for srv, sum := range s.Summary() {
		if remote, ok := req.Servers[srv]; ok && remote == sum {
			continue
		}
		if cl == nil || slices.Contains(cl.ReplicaSet(feedback.EntityID(srv)), req.Node) {
			stale = append(stale, srv)
		}
	}
	sort.Strings(stale)
	b := new(feedback.Batch)
	for _, srv := range stale {
		if err := ctx.Err(); err != nil {
			return wire.SummaryResp{}, err
		}
		h, err := s.cfg.Store.History(feedback.EntityID(srv))
		if err != nil {
			return wire.SummaryResp{}, storeError(err)
		}
		if b.Len() > 0 && b.Len()+h.Len() > maxHistoryChunk {
			break
		}
		for i := range h.Len() {
			if err := b.Append(h.At(i)); err != nil {
				return wire.SummaryResp{}, storeError(err)
			}
		}
	}
	return wire.SummaryResp{Stale: stale, Records: wire.RecordBatch{Batch: b}}, nil
}
