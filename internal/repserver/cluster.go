// Cluster routing: the server-side half of partitioned ownership.
//
// Client-facing handlers route by the consistent-hash ring (attach via
// SetCluster): writes go to the server's owner and replicate to its replica
// set; reads are served from local state when the node holds the server and
// forwarded to its owner when it does not, then to the rest of its replica
// set in ring order while the members asked are unreachable. The fwd.*
// handlers below are the node-to-node surface those routes land on — each
// one answers strictly from local state, so a forwarded call can never be
// forwarded again and routing loops are structurally impossible.
package repserver

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"honestplayer/internal/cluster"
	"honestplayer/internal/feedback"
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
func (s *Server) replicate(ctx context.Context, b *feedback.Batch) {
	cl := s.clusterRef.Load()
	if cl == nil || cl.Size() <= 1 || cl.Replicas() <= 1 || b.Len() == 0 {
		return
	}
	// Replica sets are per server, not per owner: two servers with the same
	// owner can have different successor nodes on the ring.
	sets := make([][]string, len(b.Servers()))
	for r, srv := range b.Servers() {
		sets[r] = cl.ReplicaSet(srv)
	}
	byPeer := make(map[string][]int)
	for i := range b.Len() {
		for _, id := range sets[b.ServerRef(i)] {
			if id != cl.Self() {
				byPeer[id] = append(byPeer[id], i)
			}
		}
	}
	var wg sync.WaitGroup
	for id, rows := range byPeer {
		wg.Add(1)
		go func(id string, group *feedback.Batch) {
			defer wg.Done()
			if _, err := cl.ForwardBatch(ctx, id, group, true); err != nil {
				s.logf("cluster: replicate %d records to %s: %v", group.Len(), id, err)
			}
		}(id, b.Select(rows))
	}
	wg.Wait()
}

// accepted is the batch of rb's records a batch apply did not reject, so
// replication only carries records the owner actually holds.
func accepted(rb wire.RecordBatch, resp wire.BatchResponse) *feedback.Batch {
	if len(resp.Rejected) == 0 {
		return rb.Batch
	}
	var rows []int
	k := 0
	for i, item := range resp.Items {
		if rb.Invalid != nil && rb.Invalid[i] != nil {
			continue
		}
		if item.Error == nil {
			rows = append(rows, k)
		}
		k++
	}
	return rb.Batch.Select(rows)
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
// frames, each group a batch of its records. An invalid record fails its
// slot here. Per-record items are remapped to request positions; an owner
// that is unreachable, or answers without one item per record, fails its
// whole group, preserving the batch invariant len(Items) == rb.Len().
func (s *Server) clusterBatch(ctx context.Context, cl *cluster.Cluster, rb wire.RecordBatch, batchFrame bool) (wire.BatchResponse, error) {
	if err := ctx.Err(); err != nil {
		return wire.BatchResponse{}, err
	}
	b := rb.Batch
	items := make([]wire.SubmitBatchItem, rb.Len())
	pos := make([]int, 0, b.Len()) // the request position of each batch row
	for i := range items {
		if rb.Invalid != nil && rb.Invalid[i] != nil {
			items[i].Error = storeError(rb.Invalid[i])
		} else {
			pos = append(pos, i)
		}
	}
	if n := len(items) - len(pos); n > 0 && batchFrame {
		s.nSubItems.Add(uint64(n))
		s.nSubRejects.Add(uint64(n))
	}
	owners := make([]string, len(b.Servers()))
	for r, srv := range b.Servers() {
		owners[r] = cl.Owner(srv)
	}
	rows := make([]int, b.Len())
	for k := range rows {
		rows[k] = k
	}
	local, remote := splitByOwner(rows, func(k int) (string, bool) {
		owner := owners[b.ServerRef(k)]
		return owner, owner == cl.Self()
	})
	// batchOf is the batch of a group's rows.
	batchOf := func(g *ownerGroup[int]) *feedback.Batch {
		if len(g.items) == b.Len() {
			return b
		}
		return b.Select(g.items)
	}

	type result struct {
		g    *ownerGroup[int]
		resp wire.BatchResponse
		err  error
	}
	results := make([]result, 0, len(remote)+1)
	resCh := make(chan result, len(remote))
	for owner, g := range remote {
		go func(owner string, g *ownerGroup[int], group *feedback.Batch) {
			resp, err := cl.ForwardBatch(ctx, owner, group, false)
			if err == nil && len(resp.Items) != len(g.items) {
				err = fmt.Errorf("owner %s returned %d items for %d records", owner, len(resp.Items), len(g.items))
			}
			resCh <- result{g: g, resp: resp, err: err}
		}(owner, g, batchOf(g))
	}
	if len(local.items) > 0 {
		group := wire.RecordBatch{Batch: batchOf(&local)}
		resp, err := s.applyBatch(ctx, group, batchFrame)
		if err != nil {
			// Only context expiry aborts applyBatch; drain the fan-out before
			// reporting it.
			for range remote {
				<-resCh
			}
			return wire.BatchResponse{}, err
		}
		s.replicate(ctx, accepted(group, resp))
		results = append(results, result{g: &local, resp: resp})
	}
	for range remote {
		results = append(results, <-resCh)
	}

	for _, r := range results {
		if r.err != nil {
			// The whole group failed at its owner: every record fails its
			// slot, so the response still accounts for each one.
			e := forwardedErr(r.err)
			for _, k := range r.g.items {
				items[pos[k]].Error = e
			}
			continue
		}
		for j, item := range r.resp.Items {
			items[pos[r.g.items[j]]] = item
		}
	}
	return wire.NewBatchResponse(items), nil
}

// clusterAssessItems assesses servers on a clustered node: locally held
// ones (owner or replica) through the normal shard-grouped pool, the rest
// forwarded to their owners concurrently, the items remapped to request
// order. A group whose forward fails at transport level — an unreachable
// node, or one answering without one item per server — fails over: its
// items are regrouped by the next member of their own replica set, in ring
// order, and forwarded again, until a member answers or the set is
// exhausted. A typed answer (unknown_server above all) is final.
func (s *Server) clusterAssessItems(ctx context.Context, cl *cluster.Cluster, servers []feedback.EntityID, threshold float64) []wire.AssessBatchItem {
	// Empty IDs go through the local path for its standard missing-server
	// item error.
	local, remote := splitByOwner(servers, func(srv feedback.EntityID) (string, bool) {
		if srv == "" || cl.Owns(srv) {
			return "", true
		}
		return cl.Owner(srv), false
	})
	items := make([]wire.AssessBatchItem, len(servers))
	var wg sync.WaitGroup
	for owner, g := range remote {
		wg.Add(1)
		go s.forwardAssess(ctx, cl, &wg, owner, 0, g, threshold, items)
	}
	for i, item := range s.assessItems(ctx, local.items, threshold) {
		items[local.idx[i]] = item
	}
	wg.Wait()
	return items
}

// forwardAssess asks node, which stands at position rank in the replica set
// of every server in g, to assess g, and fills g's slots of items. On a
// transport failure it hands each server on to the member after node in
// that server's own set; only when the set is exhausted (or the request has
// expired) does the failure land in the items.
func (s *Server) forwardAssess(ctx context.Context, cl *cluster.Cluster, wg *sync.WaitGroup, node string, rank int,
	g *ownerGroup[feedback.EntityID], threshold float64, items []wire.AssessBatchItem) {
	defer wg.Done()
	got, err := cl.ForwardAssessBatch(ctx, node, g.items, threshold)
	if err == nil && len(got) != len(g.items) {
		err = fmt.Errorf("node %s returned %d items for %d servers", node, len(got), len(g.items))
	}
	if err == nil {
		for i, item := range got {
			items[g.idx[i]] = item
		}
		return
	}
	e := forwardedErr(err)
	if e.Code != wire.CodeUnavailable || rank+1 >= cl.Replicas() || ctx.Err() != nil {
		for i, pos := range g.idx {
			items[pos] = wire.AssessBatchItem{Server: g.items[i], Error: e}
		}
		return
	}
	_, next := splitByOwner(g.items, func(srv feedback.EntityID) (string, bool) {
		return cl.ReplicaSet(srv)[rank+1], false
	})
	for member, ng := range next {
		for i, j := range ng.idx {
			ng.idx[i] = g.idx[j]
		}
		wg.Add(1)
		go s.forwardAssess(ctx, cl, wg, member, rank+1, ng, threshold, items)
	}
}

// Node-to-node handlers. Every fwd.* request is answered from local state
// only.

// fwdBatch applies records a peer handed over: a client batch's slice for
// this owner, a non-owner's single submit as a batch of one, or a
// replication write.
func (s *Server) fwdBatch(ctx context.Context, req wire.FwdBatchRequest) (wire.BatchResponse, error) {
	rb := withBatch(req.Records)
	resp, err := s.applyBatch(ctx, rb, true)
	if err != nil {
		return wire.BatchResponse{}, err
	}
	if !req.Replica {
		// We are the owner of forwarded writes: fan them out to the replica
		// set. Replica writes stop here by construction.
		s.replicate(ctx, accepted(rb, resp))
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
