package repserver

// Anti-entropy, the responder half (the initiator is internal/gossip, a
// client of this listener): gossip.summary and gossip.digest are ordinary
// requests in the service pipeline, so they get its recovery, metrics,
// deadline and drain, ride either codec, and read histories from the store,
// which faults an evicted server in — a peer can be repaired from a server
// this node has evicted. Summary and Hashes are the same local reads, offered in process
// to the node's own reconciler (they make *Server a gossip.Node).

import (
	"context"
	"sort"

	"honestplayer/internal/feedback"
	"honestplayer/internal/service"
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

// eachRecord visits every record held for servers, in history order, as a
// history and an index into it; it stops early when ctx ends.
func (s *Server) eachRecord(ctx context.Context, servers []string, visit func(h *feedback.History, i int)) error {
	for _, srv := range servers {
		if err := ctx.Err(); err != nil {
			return err
		}
		h, err := s.cfg.Store.History(feedback.EntityID(srv))
		if err != nil {
			return storeError(err)
		}
		for i := 0; i < h.Len(); i++ {
			visit(h, i)
		}
	}
	return nil
}

// Hashes returns the content hashes of every record held for servers — the
// digest an anti-entropy round sends for the servers a peer reported stale.
func (s *Server) Hashes(ctx context.Context, servers []string) ([]uint64, error) {
	var hashes []uint64
	err := s.eachRecord(ctx, servers, func(h *feedback.History, i int) {
		hashes = append(hashes, uint64(store.HashAt(h, i)))
	})
	return hashes, err
}

// gossipSummary answers a peer's summary with the servers it should pull:
// those whose local checksum differs from the peer's, or that the peer has
// never seen.
func (s *Server) gossipSummary(_ context.Context, req wire.SummaryMsg) (wire.SummaryResp, error) {
	var stale []string
	for srv, sum := range s.Summary() {
		if remote, ok := req.Servers[srv]; !ok || remote != sum {
			stale = append(stale, srv)
		}
	}
	sort.Strings(stale)
	return wire.SummaryResp{Stale: stale}, nil
}

// gossipDigest answers a peer's digest with the records of the listed
// servers whose content hashes the digest lacks.
func (s *Server) gossipDigest(ctx context.Context, req wire.DigestMsg) (wire.DeltaMsg, error) {
	if len(req.Servers) == 0 {
		return wire.DeltaMsg{}, service.Errorf(wire.CodeBadRequest, "digest names no servers")
	}
	have := make(map[store.Hash]struct{}, len(req.Hashes))
	for _, h := range req.Hashes {
		have[store.Hash(h)] = struct{}{}
	}
	var missing []feedback.Feedback
	err := s.eachRecord(ctx, req.Servers, func(h *feedback.History, i int) {
		if _, ok := have[store.HashAt(h, i)]; !ok {
			missing = append(missing, h.At(i))
		}
	})
	return wire.DeltaMsg{Records: missing}, err
}
