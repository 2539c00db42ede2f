package repserver

import (
	"context"
	"fmt"

	"honestplayer/internal/cluster"
	"honestplayer/internal/feedback"
	"honestplayer/internal/service"
	"honestplayer/internal/store"
	"honestplayer/internal/wire"
)

// The assess path. Every verdict this node computes — single assess,
// assess.batch and fwd.assess.batch — comes out of assessGroup, which runs
// the two-phase assessment over the server's stored history. A single assess
// is a batch of one, routed like any batch item (ADR 0010), so its verdict is
// bit-identical to the same server's item in a batch through any door.

// assess serves TypeAssess as an assess.batch of one: the same routing and
// replica failover, the same error codes as the server would get as a batch
// item, with its item slot unwrapped into the single response. It does not
// move batch_items.
func (s *Server) assess(ctx context.Context, req wire.AssessRequest) (wire.AssessResponse, error) {
	return s.assessOne(ctx, s.clusterRef.Load(), req)
}

// Assess runs one assessment against local state, exactly as a TypeAssess
// request would be served on a single node minus the wire decode and socket
// I/O: the response a client decodes, which carries no judged history. It
// is the entry point for embedders and benchmark harnesses that need the
// serving semantics without a network round trip.
func (s *Server) Assess(ctx context.Context, req wire.AssessRequest) (wire.AssessResponse, error) {
	resp, err := s.assessOne(ctx, nil, req)
	resp.Judged = nil
	return resp, err
}

func (s *Server) assessOne(ctx context.Context, cl *cluster.Cluster, req wire.AssessRequest) (wire.AssessResponse, error) {
	items, err := s.routeItems(ctx, cl, []feedback.EntityID{req.Server}, req.Threshold)
	if err != nil {
		return wire.AssessResponse{}, err
	}
	if e := items[0].Error; e != nil {
		return wire.AssessResponse{}, e
	}
	return items[0].AssessResponse, nil
}

func (s *Server) routeAssessBatch(ctx context.Context, req wire.AssessBatchRequest) (wire.AssessBatchResponse, error) {
	return s.assessBatch(ctx, s.clusterRef.Load(), req)
}

// AssessBatch runs one batch assessment against local state, exactly as a
// TypeAssessB request would be served on a single node minus the wire decode
// and socket I/O — the batch counterpart of Assess.
func (s *Server) AssessBatch(ctx context.Context, req wire.AssessBatchRequest) (wire.AssessBatchResponse, error) {
	resp, err := s.assessBatch(ctx, nil, req)
	for i := range resp.Items {
		resp.Items[i].Judged = nil
	}
	return resp, err
}

// assessBatch serves one assess batch. Per-server failures (unknown server,
// assessment error, unreachable replica set) land in their item's error
// slot; only request-level problems — empty or oversized batch, expired
// context — fail the request. Items[i] always answers Servers[i];
// len(Items) == len(Servers).
func (s *Server) assessBatch(ctx context.Context, cl *cluster.Cluster, req wire.AssessBatchRequest) (wire.AssessBatchResponse, error) {
	n := len(req.Servers)
	if n == 0 {
		return wire.AssessBatchResponse{}, service.Errorf(wire.CodeBadRequest, "empty batch")
	}
	if n > wire.MaxAssessBatch {
		return wire.AssessBatchResponse{}, service.Errorf(wire.CodeBadRequest,
			"batch of %d servers exceeds max %d", n, wire.MaxAssessBatch)
	}
	items, err := s.routeItems(ctx, cl, req.Servers, req.Threshold)
	if err != nil {
		return wire.AssessBatchResponse{}, err
	}
	s.nBatchItems.Add(uint64(n))
	return wire.AssessBatchResponse{Items: items}, nil
}

// routeItems assesses servers through the cluster split when cl names more
// than one node, from local state otherwise.
func (s *Server) routeItems(ctx context.Context, cl *cluster.Cluster, servers []feedback.EntityID, threshold float64) ([]wire.AssessBatchItem, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var items []wire.AssessBatchItem
	if cl != nil && cl.Size() > 1 {
		items = s.clusterAssessItems(ctx, cl, servers, threshold)
	} else {
		items = s.assessItems(ctx, servers, threshold)
	}
	// A batch cut short by deadline or shutdown fails whole: a half-filled
	// response would be indistinguishable from per-item failures.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return items, nil
}

// shardGroup is the unit of batch fan-out: the request positions of all
// items living on one store shard. Grouping is what lets the pool serve a
// whole shard's items under a single read-lock acquisition.
type shardGroup struct {
	shard   int
	pos     []int               // positions into the request's Servers
	servers []feedback.EntityID // aligned with pos
}

// assessItems assesses servers from local state: items are grouped by store
// shard and the groups fanned out across a pool of GOMAXPROCS workers, each
// served by assessGroup; a shard's items are served by one worker under one
// shard read-lock acquisition.
func (s *Server) assessItems(ctx context.Context, servers []feedback.EntityID, threshold float64) []wire.AssessBatchItem {
	items := make([]wire.AssessBatchItem, len(servers))
	byShard := make(map[int]*shardGroup)
	groups := make([]*shardGroup, 0, s.cfg.Store.NumShards())
	for i, srv := range servers {
		items[i].Server = srv
		if srv == "" {
			items[i].Error = &wire.ErrorResponse{Code: wire.CodeBadRequest, Message: "missing server"}
			continue
		}
		idx := s.cfg.Store.ShardIndex(srv)
		g := byShard[idx]
		if g == nil {
			g = &shardGroup{shard: idx}
			byShard[idx] = g
			groups = append(groups, g)
		}
		g.pos = append(g.pos, i)
		g.servers = append(g.servers, srv)
	}

	store.FanOut(len(groups), 0, func() func(int) {
		return func(i int) { s.assessGroup(ctx, threshold, groups[i], items) }
	})
	return items
}

// assessGroup serves one shard group in one pass: it captures each server's
// snapshot under a single shard read lock (evicted servers are faulted in and
// viewed again, see store.ViewResident), then runs the two-phase assessment
// over each snapshot after the lock is released, so a recompute never stalls
// the shard's writers. The node keeps no per-server assessment state: every
// verdict is TwoPhase.Accept over the stored history (ADR 0016's amendment).
func (s *Server) assessGroup(ctx context.Context, threshold float64, g *shardGroup, items []wire.AssessBatchItem) {
	snaps := make([]*feedback.History, len(g.servers))
	s.cfg.Store.ViewResident(ctx, g.shard, g.servers,
		func(i int, snap *feedback.History) { snaps[i] = snap },
		func(i int, err error) { items[g.pos[i]].Error = storeError(err) })
	for i, snap := range snaps {
		item := &items[g.pos[i]]
		if ctx.Err() != nil {
			// The request-level check reports the expiry; no point starting
			// more recomputes for a response nobody will see.
			return
		}
		if item.Error != nil {
			continue
		}
		if snap == nil || snap.Len() == 0 {
			item.Error = &wire.ErrorResponse{
				Code:    wire.CodeUnknownServer,
				Message: fmt.Sprintf("no records for %q", item.Server),
			}
			continue
		}
		accept, a, err := s.cfg.Assessor.Accept(snap, threshold)
		if err != nil {
			item.Error = &wire.ErrorResponse{Code: wire.CodeAssessmentFailed, Message: err.Error()}
			continue
		}
		item.AssessResponse = wire.AssessResponse{Assessment: a, Accept: accept, Judged: snap}
	}
}
