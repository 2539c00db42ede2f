// Cluster forwarding payloads (frame type codes 22–25).
//
// These messages are exchanged only between trustd nodes of one cluster,
// over the same frame clients use. Every fwd.* call takes a slice — records
// or servers — and is answered from the receiving node's local state only;
// the payloads have binary codecs (see binary.go), because a forwarded
// assessment carries the full per-suffix verdict table, far too hot for JSON
// at large histories. A node's view of its cluster is its /metricz
// cluster block, not a message.
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
