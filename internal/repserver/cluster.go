// Cluster routing: the server-side half of partitioned ownership.
//
// Client-facing handlers route by the consistent-hash ring (attach via
// SetCluster): writes go to the server's owner and replicate to its replica
// set, reads are served from local state when the node holds it and
// fanned out + weight-merged when it does not. The fwd.* handlers below are
// the node-to-node surface those routes land on — each one answers strictly
// from local state, so a forwarded call can never be forwarded again and
// routing loops are structurally impossible.
package repserver

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"honestplayer/internal/cluster"
	"honestplayer/internal/feedback"
	"honestplayer/internal/service"
	"honestplayer/internal/wire"
)

// forwardedErr converts a forwarded call's failure into the error the
// client should see: a typed error relayed from the peer keeps its code
// (unknown_server stays unknown_server), a transport failure becomes
// unavailable.
func forwardedErr(err error) *wire.ErrorResponse {
	var typed *wire.ErrorResponse
	if errors.As(err, &typed) {
		return typed
	}
	return &wire.ErrorResponse{Code: wire.CodeUnavailable, Message: err.Error()}
}

// nodeID names the local node in forwarded responses; empty on a
// non-clustered server.
func (s *Server) nodeID() string {
	if cl := s.clusterRef.Load(); cl != nil {
		return cl.Self()
	}
	return ""
}

// replicate pushes freshly stored records to the other members of each
// record's replica set, grouped so each peer gets one frame. It is called
// on the owner's write path only (the Replica flag stops the receivers from
// fanning out again) and is synchronous — when a submit returns, the
// replica set has converged — but best-effort: an unreachable replica is
// logged and counted, not surfaced, because the owner's copy is already
// durable and anti-entropy gossip repairs the replica later.
func (s *Server) replicate(ctx context.Context, recs []feedback.Feedback) {
	cl := s.clusterRef.Load()
	if cl == nil || cl.Size() <= 1 || cl.Replicas() <= 1 || len(recs) == 0 {
		return
	}
	byPeer := make(map[string][]feedback.Feedback)
	for _, rec := range recs {
		// Replica sets are per record, not per owner: two servers with the
		// same owner can have different successor nodes on the ring.
		for _, id := range cl.ReplicaSet(rec.Server) {
			if id != cl.Self() {
				byPeer[id] = append(byPeer[id], rec)
			}
		}
	}
	var wg sync.WaitGroup
	for id, group := range byPeer {
		wg.Add(1)
		go func(id string, group []feedback.Feedback) {
			defer wg.Done()
			if _, err := cl.ForwardBatch(ctx, id, group, true); err != nil {
				s.logf("cluster: replicate %d records to %s: %v", len(group), id, err)
			}
		}(id, group)
	}
	wg.Wait()
}

// acceptedRecords filters out the records a batch apply rejected, so
// replication only carries records the owner actually holds.
func acceptedRecords(recs []feedback.Feedback, resp wire.BatchResponse) []feedback.Feedback {
	if len(resp.Rejected) == 0 {
		return recs
	}
	out := make([]feedback.Feedback, 0, len(recs)-len(resp.Rejected))
	for i, rec := range recs {
		if resp.Items[i].Error == nil {
			out = append(out, rec)
		}
	}
	return out
}

// ownerGroup is one node's slice of a batch request, with the original
// request positions for remapping the per-item report.
type ownerGroup[T any] struct {
	items []T
	idx   []int
}

// splitByOwner splits a batch into the group this node serves itself and one
// group per owner of the rest; route says, per item, which of the two it is
// and names the owner.
func splitByOwner[T any](items []T, route func(T) (owner string, here bool)) (local ownerGroup[T], remote map[string]*ownerGroup[T]) {
	remote = make(map[string]*ownerGroup[T])
	for i, item := range items {
		g := &local
		if owner, here := route(item); !here {
			if g = remote[owner]; g == nil {
				g = &ownerGroup[T]{}
				remote[owner] = g
			}
		}
		g.items = append(g.items, item)
		g.idx = append(g.idx, i)
	}
	return local, remote
}

// clusterBatch serves submitted records on a clustered node: records are
// split by owner, the local group applied (and replicated) in place, the
// remote groups forwarded to their owners concurrently as fwd.submit.batch
// frames. Per-record rejections are remapped to request positions; an owner
// that is unreachable, or answers without one item per record, rejects its
// whole group, preserving the batch invariant
// Stored + Duplicates + len(Rejected) == len(Records).
func (s *Server) clusterBatch(ctx context.Context, cl *cluster.Cluster, recs []feedback.Feedback, batchFrame bool) (wire.BatchResponse, error) {
	if err := ctx.Err(); err != nil {
		return wire.BatchResponse{}, err
	}
	local, remote := splitByOwner(recs, func(rec feedback.Feedback) (string, bool) {
		owner := cl.Owner(rec.Server)
		return owner, owner == cl.Self()
	})

	type result struct {
		g    *ownerGroup[feedback.Feedback]
		resp wire.BatchResponse
		err  error
	}
	results := make([]result, 0, len(remote)+1)
	resCh := make(chan result, len(remote))
	for owner, g := range remote {
		go func(owner string, g *ownerGroup[feedback.Feedback]) {
			resp, err := cl.ForwardBatch(ctx, owner, g.items, false)
			if err == nil && len(resp.Items) != len(g.items) {
				err = fmt.Errorf("owner %s returned %d items for %d records", owner, len(resp.Items), len(g.items))
			}
			resCh <- result{g: g, resp: resp, err: err}
		}(owner, g)
	}
	if len(local.items) > 0 {
		resp, err := s.applyBatch(ctx, local.items, batchFrame)
		if err != nil {
			// Only context expiry aborts applyBatch; drain the fan-out before
			// reporting it.
			for range remote {
				<-resCh
			}
			return wire.BatchResponse{}, err
		}
		s.replicate(ctx, acceptedRecords(local.items, resp))
		results = append(results, result{g: &local, resp: resp})
	}
	for range remote {
		results = append(results, <-resCh)
	}

	out := wire.BatchResponse{Items: make([]wire.SubmitBatchItem, len(recs))}
	for _, r := range results {
		if r.err != nil {
			// The whole group failed at its owner: report every record as
			// rejected so the response still accounts for each one.
			e := forwardedErr(r.err)
			reason := fmt.Sprintf("%s: %s", e.Code, e.Message)
			for _, pos := range r.g.idx {
				out.Rejected = append(out.Rejected, wire.BatchReject{Index: pos, Reason: reason})
				out.Items[pos].Error = e
			}
			continue
		}
		out.Stored += r.resp.Stored
		out.Duplicates += r.resp.Duplicates
		for _, rej := range r.resp.Rejected {
			out.Rejected = append(out.Rejected, wire.BatchReject{Index: r.g.idx[rej.Index], Reason: rej.Reason})
		}
		for i, item := range r.resp.Items {
			out.Items[r.g.idx[i]] = item
		}
	}
	sortRejected(out.Rejected)
	return out, nil
}

// sortRejected restores request order in a merged rejection report.
func sortRejected(rejected []wire.BatchReject) {
	for i := 1; i < len(rejected); i++ {
		for j := i; j > 0 && rejected[j-1].Index > rejected[j].Index; j-- {
			rejected[j-1], rejected[j] = rejected[j], rejected[j-1]
		}
	}
}

// clusterAssess answers an assess for a server whose state lives elsewhere.
// The owner is asked for its full assessment while every other member of
// the replica set is asked for an O(1) state digest (record count + content
// XOR), all concurrently. Replication is synchronous, so the digests almost
// always match the owner's view and the owner's assessment — verified
// against the whole set — is the merged answer without paying a full
// recomputation per replica. A disagreeing digest (a replica that missed a
// write) escalates: the diverged replicas are asked for full assessments
// and the views weight-merged (cluster.Merge), which is the only case where
// merging can change the answer. When the owner is unreachable or declines,
// the remaining replicas are asked for full assessments instead; any
// reachable replica suffices, and only when the whole set is down does the
// request fail with unavailable.
func (s *Server) clusterAssess(ctx context.Context, cl *cluster.Cluster, req wire.AssessRequest) (wire.AssessResponse, error) {
	set := cl.ReplicaSet(req.Server)
	parts := make([]wire.NodeAssessment, len(set))
	errs := make([]error, len(set))
	var wg sync.WaitGroup
	for i, id := range set {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			parts[i], errs[i] = cl.ForwardAssess(ctx, id, req.Server, req.Threshold, i > 0)
		}(i, id)
	}
	wg.Wait()

	if errs[0] == nil {
		owner := parts[0]
		agreed := []string{owner.Node}
		var diverged []int
		for i := 1; i < len(set); i++ {
			if errs[i] != nil {
				// Unreachable replica: the owner's view stands for it. Gossip
				// anti-entropy repairs the replica; reads do not wait for it.
				continue
			}
			if parts[i].Records == owner.Records && parts[i].XOR == owner.XOR {
				agreed = append(agreed, parts[i].Node)
				continue
			}
			diverged = append(diverged, i)
		}
		if len(diverged) == 0 {
			resp := owner.AssessResponse
			resp.Merged = true
			resp.MergedFrom = agreed
			return resp, nil
		}
		cl.CountDigestMismatch()
		full := fetchFull(ctx, cl, req, set, diverged)
		merged, err := cluster.Merge(req.Threshold, append([]wire.NodeAssessment{owner}, full...))
		if err != nil {
			return wire.AssessResponse{}, service.Errorf(wire.CodeInternal, "%v", err)
		}
		if len(full) > 0 {
			cl.CountMerge()
		}
		return merged, nil
	}

	// The owner is down or declined. Re-ask the rest of the set for full
	// assessments (the first round only fetched their digests) and merge
	// the survivors.
	rest := make([]int, 0, len(set)-1)
	for i := 1; i < len(set); i++ {
		rest = append(rest, i)
	}
	live := fetchFull(ctx, cl, req, set, rest)
	if len(live) == 0 {
		var typed *wire.ErrorResponse
		if errors.As(errs[0], &typed) {
			// Every replica failed the same way the owner did — relay its
			// typed error (unknown_server for a server nobody has seen).
			return wire.AssessResponse{}, typed
		}
		return wire.AssessResponse{}, service.Errorf(wire.CodeUnavailable,
			"all %d replicas of %q unreachable: %v", len(set), req.Server, errs[0])
	}
	merged, err := cluster.Merge(req.Threshold, live)
	if err != nil {
		return wire.AssessResponse{}, service.Errorf(wire.CodeInternal, "%v", err)
	}
	if len(live) > 1 {
		cl.CountMerge()
	}
	return merged, nil
}

// fetchFull asks the set members at the given indices for full assessments
// concurrently and returns the successful parts.
func fetchFull(ctx context.Context, cl *cluster.Cluster, req wire.AssessRequest, set []string, idx []int) []wire.NodeAssessment {
	if len(idx) == 0 {
		return nil
	}
	parts := make([]wire.NodeAssessment, len(idx))
	errs := make([]error, len(idx))
	var wg sync.WaitGroup
	for j, i := range idx {
		wg.Add(1)
		go func(j, i int) {
			defer wg.Done()
			parts[j], errs[j] = cl.ForwardAssess(ctx, set[i], req.Server, req.Threshold, false)
		}(j, i)
	}
	wg.Wait()
	live := parts[:0]
	for j := range parts {
		if errs[j] == nil {
			live = append(live, parts[j])
		}
	}
	return live
}

// clusterAssessItems assesses the servers of a batch on a clustered node:
// servers split by routing — locally held ones through the normal
// shard-grouped pool, the rest forwarded to their owners concurrently — and
// the items remapped to request order. An owner that is unreachable, or
// answers without one item per server, fails only its own items, matching
// the batch's per-item error contract.
func (s *Server) clusterAssessItems(ctx context.Context, cl *cluster.Cluster, req wire.AssessBatchRequest) []wire.AssessBatchItem {
	// Local state wins (owner or replica); empty IDs go through the local
	// path for its standard missing-server item error.
	local, remote := splitByOwner(req.Servers, func(srv feedback.EntityID) (string, bool) {
		if srv == "" || cl.Owns(srv) {
			return "", true
		}
		return cl.Owner(srv), false
	})

	items := make([]wire.AssessBatchItem, len(req.Servers))
	type result struct {
		g     *ownerGroup[feedback.EntityID]
		items []wire.AssessBatchItem
		err   error
	}
	resCh := make(chan result, len(remote))
	for owner, g := range remote {
		go func(owner string, g *ownerGroup[feedback.EntityID]) {
			got, err := cl.ForwardAssessBatch(ctx, owner, g.items, req.Threshold)
			if err == nil && len(got) != len(g.items) {
				err = fmt.Errorf("owner %s returned %d items for %d servers", owner, len(got), len(g.items))
			}
			resCh <- result{g: g, items: got, err: err}
		}(owner, g)
	}
	for i, item := range s.assessItems(ctx, local.items, req.Threshold) {
		items[local.idx[i]] = item
	}
	for range remote {
		r := <-resCh
		if r.err != nil {
			e := forwardedErr(r.err)
			for i, pos := range r.g.idx {
				items[pos] = wire.AssessBatchItem{Server: r.g.items[i], Error: e}
			}
			continue
		}
		for i, item := range r.items {
			items[r.g.idx[i]] = item
		}
	}
	return items
}

// Node-to-node handlers. Every fwd.* request is answered from local state
// only.

func (s *Server) fwdAssess(ctx context.Context, req wire.FwdAssessRequest) (wire.NodeAssessment, error) {
	_, version := s.cfg.Store.Snapshot(req.Server)
	sum := s.cfg.Store.ServerChecksum(req.Server)
	na := wire.NodeAssessment{Node: s.nodeID(), Records: sum.Count, Version: version, XOR: sum.XOR}
	if !req.DigestOnly {
		resp, err := s.Assess(ctx, wire.AssessRequest{Server: req.Server, Threshold: req.Threshold})
		if err != nil {
			return wire.NodeAssessment{}, err
		}
		na.AssessResponse = resp
	}
	return na, nil
}

// fwdBatch applies records a peer handed over: a client batch's slice for
// this owner, a non-owner's single submit as a batch of one, or a
// replication write.
func (s *Server) fwdBatch(ctx context.Context, req wire.FwdBatchRequest) (wire.BatchResponse, error) {
	resp, err := s.applyBatch(ctx, req.Records, true)
	if err != nil {
		return wire.BatchResponse{}, err
	}
	if !req.Replica {
		// We are the owner of forwarded writes: fan them out to the replica
		// set. Replica writes stop here by construction.
		s.replicate(ctx, acceptedRecords(req.Records, resp))
	}
	return resp, nil
}

func (s *Server) fwdAssessBatch(ctx context.Context, req wire.FwdAssessBatchRequest) (wire.FwdAssessBatchResponse, error) {
	resp, err := s.AssessBatch(ctx, wire.AssessBatchRequest{Servers: req.Servers, Threshold: req.Threshold})
	if err != nil {
		return wire.FwdAssessBatchResponse{}, err
	}
	return wire.FwdAssessBatchResponse{Node: s.nodeID(), Items: resp.Items}, nil
}

func (s *Server) handleClusterInfo(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
	owned := len(s.cfg.Store.Servers())
	resp := wire.ClusterStatusResponse{Owned: owned}
	if cl := s.clusterRef.Load(); cl != nil {
		resp = cl.Status(owned)
	}
	return service.CodecFrom(ctx).Encode(wire.TypeClusterInfoR, env.ID, resp)
}
