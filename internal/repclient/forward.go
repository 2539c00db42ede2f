package repclient

import (
	"context"

	"honestplayer/internal/feedback"
	"honestplayer/internal/wire"
)

// Node-to-node calls. These are the internal RPC surface between trustd
// nodes (wire types fwd.*, gossip.* and cluster.info): nodes use the fwd.*
// calls to route requests to the owner of a server's history and the
// gossip.* pair to pull records a replica missed, and trustctl uses
// ClusterStatusCtx for `cluster-status`. They share the client's normal
// transport — pipelining, poisoning, redial — so a node-to-node link gets
// the same failure semantics as a client link.

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

// GossipSummaryCtx opens an anti-entropy exchange: it sends the caller's
// per-server checksums and returns the servers whose record sets differ on
// the peer.
func (c *Client) GossipSummaryCtx(ctx context.Context, msg wire.SummaryMsg) (wire.SummaryResp, error) {
	var resp wire.SummaryResp
	err := c.muxRoundTrip(ctx, wire.TypeSummary, wire.TypeSummaryR, msg, &resp)
	return resp, err
}

// GossipDigestCtx sends the content hashes the caller holds for the listed
// servers and returns the peer's records of those servers that are missing
// from them.
func (c *Client) GossipDigestCtx(ctx context.Context, msg wire.DigestMsg) (wire.DeltaMsg, error) {
	var resp wire.DeltaMsg
	err := c.muxRoundTrip(ctx, wire.TypeDigest, wire.TypeDelta, msg, &resp)
	return resp, err
}

// ClusterStatusCtx fetches the peer's view of its cluster. Single-node
// servers answer Enabled=false.
func (c *Client) ClusterStatusCtx(ctx context.Context) (wire.ClusterStatusResponse, error) {
	var resp wire.ClusterStatusResponse
	err := c.muxRoundTrip(ctx, wire.TypeClusterInfo, wire.TypeClusterInfoR, wire.ClusterStatusRequest{}, &resp)
	return resp, err
}

// ClusterStatus is ClusterStatusCtx with the client's configured timeout.
func (c *Client) ClusterStatus() (wire.ClusterStatusResponse, error) {
	return c.ClusterStatusCtx(context.Background())
}
