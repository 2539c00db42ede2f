package repclient

import (
	"context"

	"honestplayer/internal/feedback"
	"honestplayer/internal/wire"
)

// Node-to-node calls. These are the internal RPC surface between trustd
// nodes (wire types fwd.* and gossip.*): nodes use the fwd.* calls to route
// requests to the owner of a server's history and the gossip.* pair to pull
// records a replica missed. They share the client's normal transport —
// pipelining, poisoning, redial — so a node-to-node link gets the same
// failure semantics as a client link.

// ForwardBatchCtx hands a batch of records to the peer in one frame, with
// the same per-record report as a client batch submit. Replica marks a
// replication write (stored without further fan-out).
func (c *Client) ForwardBatchCtx(ctx context.Context, node string, b *feedback.Batch, replica bool) (wire.BatchResponse, error) {
	var resp wire.BatchResponse
	req := wire.FwdBatchRequest{Node: node, Records: wire.RecordBatch{Batch: b}, Replica: replica}
	err := c.muxRoundTrip(ctx, wire.TypeFwdBatch, wire.TypeFwdBatchR, req, &resp)
	return resp, err
}

// ForwardAssessBatchCtx asks the peer to assess servers from its local
// state; Items[i] answers servers[i].
func (c *Client) ForwardAssessBatchCtx(ctx context.Context, node string, servers []feedback.EntityID, threshold float64) ([]wire.AssessBatchItem, error) {
	var resp wire.FwdAssessBatchResponse
	req := wire.FwdAssessBatchRequest{Node: node, Servers: servers, Threshold: threshold}
	if err := c.muxRoundTrip(ctx, wire.TypeFwdAssessB, wire.TypeFwdAssessBR, req, &resp); err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// GossipSummaryCtx is an anti-entropy round trip: it sends the caller's
// per-server checksums and returns the servers whose record sets differ on
// the peer, with the peer's records of as many of them as one answer holds.
func (c *Client) GossipSummaryCtx(ctx context.Context, msg wire.SummaryMsg) (wire.SummaryResp, error) {
	var resp wire.SummaryResp
	err := c.muxRoundTrip(ctx, wire.TypeSummary, wire.TypeSummaryR, msg, &resp)
	return resp, err
}
