// Cluster forwarding payloads (protocol v2 types 18–27, JSON on v1).
//
// These messages are exchanged only between trustd nodes of one cluster,
// over the same connections and framings clients use. The fwd.* payloads
// have binary codecs (see binary.go): a forwarded assessment carries the
// full per-suffix verdict table, far too hot for JSON at large histories.
// The cold cluster.info pair rides v2 as JSON via flagJSONPayload.
package wire

import "honestplayer/internal/feedback"

// FwdAssessRequest asks a peer node for its local assessment of a server.
// The receiving node answers strictly from local state: it never forwards
// again, never consults its assess cache for another node's view, and
// reports its local history length so the caller can weight the merge.
type FwdAssessRequest struct {
	// Node identifies the requesting node (for logs and loop diagnosis).
	Node      string            `json:"node"`
	Server    feedback.EntityID `json:"server"`
	Threshold float64           `json:"threshold"`
	// DigestOnly asks for the node's state digest (Records, Version, XOR)
	// without computing an assessment. Forwarding nodes use it to verify
	// replica agreement in O(1) before trusting a single full assessment.
	DigestOnly bool `json:"digest_only,omitempty"`
}

// NodeAssessment is one node's local view of a server, the unit the
// cluster merge operates on (cluster.Merge).
type NodeAssessment struct {
	// Node is the answering node's ID.
	Node string `json:"node"`
	// Records is the answering node's local history length for the server —
	// the merge weight.
	Records int `json:"records"`
	// Version is the answering node's store version for the server; two
	// NodeAssessments with equal Records and Version saw the same history.
	Version uint64 `json:"version"`
	// XOR is the XOR of the content hashes of the node's local records for
	// the server. Two NodeAssessments with equal Records and XOR hold (up
	// to hash collisions) the same record set, regardless of write order.
	XOR uint64 `json:"xor,omitempty"`
	// AssessResponse is the node's local assessment outcome; zero when the
	// request was DigestOnly.
	AssessResponse
}

// FwdBatchRequest hands a slice of feedback records to a peer node, all
// owned (or replicated) by that peer; a single forwarded submit is a batch
// of one.
type FwdBatchRequest struct {
	Node    string              `json:"node"`
	Records []feedback.Feedback `json:"records"`
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
