// Cluster forwarding payloads (frame type codes 22–27).
//
// These messages are exchanged only between trustd nodes of one cluster,
// over the same frame clients use. Every fwd.* call takes a slice — records
// or servers — and is answered from the receiving node's local state only;
// the payloads have binary codecs (see binary.go), because a forwarded
// assessment carries the full per-suffix verdict table, far too hot for JSON
// at large histories. The cold cluster.info pair rides v2 as JSON via
// flagJSONPayload.
package wire

import "honestplayer/internal/feedback"

// FwdBatchRequest hands a batch of feedback records to a peer node, all
// owned (or replicated) by that peer; a single forwarded submit is a batch
// of one.
type FwdBatchRequest struct {
	Node    string      `json:"node"`
	Records RecordBatch `json:"records"`
	// Replica marks a replication write: the receiver stores the records
	// because it is in the servers' replica sets, and must not replicate
	// them onward (only the owner fans out to replicas, exactly once).
	Replica bool `json:"replica,omitempty"`
}

// FwdAssessBatchRequest asks a peer node to assess a subset of a batch —
// the servers that peer owns. The receiver runs its normal shard-grouped
// batch path over local state only.
type FwdAssessBatchRequest struct {
	Node      string              `json:"node"`
	Servers   []feedback.EntityID `json:"servers"`
	Threshold float64             `json:"threshold"`
}

// FwdAssessBatchResponse answers a forwarded batch: Items[i] is the
// outcome for Servers[i], as in AssessBatchResponse.
type FwdAssessBatchResponse struct {
	Node  string            `json:"node"`
	Items []AssessBatchItem `json:"items"`
}

// ClusterStatusRequest asks a node for its view of the cluster.
type ClusterStatusRequest struct{}

// ClusterPeer is one membership entry in a cluster status response.
type ClusterPeer struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	// Self marks the answering node's own entry.
	Self bool `json:"self,omitempty"`
	// RTTMs is the answering node's last measured round-trip to the peer in
	// milliseconds; 0 when never dialed.
	RTTMs float64 `json:"rtt_ms,omitempty"`
}

// ClusterStatusResponse describes the answering node's cluster view. A
// single-node (non-clustered) deployment answers Enabled=false with no
// peers.
type ClusterStatusResponse struct {
	Enabled  bool          `json:"enabled"`
	Node     string        `json:"node,omitempty"`
	Replicas int           `json:"replicas,omitempty"`
	VNodes   int           `json:"vnodes,omitempty"`
	Peers    []ClusterPeer `json:"peers,omitempty"`
	// Owned is the number of servers in the local store (all of which the
	// node owns or replicates).
	Owned int `json:"owned"`
}
