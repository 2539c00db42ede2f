// Package wire defines the protocol spoken between reputation clients, the
// reputation server and its cluster peers: one length-prefixed binary frame
// (v2.go) carrying the message types below, whose payloads are the per-type
// binary codecs of binary.go — or, between two ends running different codec
// revisions, their JSON form (the bridge, ADR 0009). The JSON field names
// are the schema of a bridged payload.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/store"
)

// MaxFrame bounds the size of one frame body. History responses chunk
// themselves to stay under it.
const MaxFrame = 4 << 20

// MaxAssessBatch caps the servers in one assess.batch request. The server
// rejects larger requests with bad_request; clients chunk transparently
// (repclient.AssessBatch splits and reassembles in order). The cap bounds
// the response frame — each item carries a full assessment — and the work
// one request can pin on the batch worker pool.
const MaxAssessBatch = 256

// MaxSubmitBatch caps the records in one submit.batch request. The server
// rejects larger requests with bad_request; clients chunk transparently
// (repclient.SubmitBatch splits and reassembles in order). The cap bounds
// the request frame and the work one batch can pin on the worker pool and
// the ledger's group-commit queue.
const MaxSubmitBatch = 256

// MsgType discriminates envelope payloads.
type MsgType string

// Message types.
const (
	TypePing     MsgType = "ping"
	TypePong     MsgType = "pong"
	TypeSubmit   MsgType = "submit"
	TypeSubmitR  MsgType = "submit.resp"
	TypeSubmitB  MsgType = "submit.batch"
	TypeSubmitBR MsgType = "submit.batch.resp"
	TypeHistory  MsgType = "history"
	TypeHistoryR MsgType = "history.resp"
	TypeAssess   MsgType = "assess"
	TypeAssessR  MsgType = "assess.resp"
	TypeAssessB  MsgType = "assess.batch"
	TypeAssessBR MsgType = "assess.batch.resp"
	TypeSummary  MsgType = "gossip.summary"
	TypeSummaryR MsgType = "gossip.summary.resp"
	TypeError    MsgType = "error"
)

// Node-to-node message types for cluster forwarding. A forwarded call is
// always answered from the receiving node's local state — never forwarded
// again — which makes routing loops structurally impossible even under a
// membership misconfiguration. See docs/CLUSTER.md.
const (
	TypeFwdBatch    MsgType = "fwd.submit.batch"
	TypeFwdBatchR   MsgType = "fwd.submit.batch.resp"
	TypeFwdAssessB  MsgType = "fwd.assess.batch"
	TypeFwdAssessBR MsgType = "fwd.assess.batch.resp"
)

// Error codes carried by ErrorResponse frames. Servers use these; clients
// match on them (string-compare or errors.As on *ErrorResponse).
const (
	// CodeBadRequest reports a malformed or incomplete request payload.
	CodeBadRequest = "bad_request"
	// CodeInvalidFeedback reports a feedback record failing validation.
	CodeInvalidFeedback = "invalid_feedback"
	// CodeUnknownServer reports an assessment of a server with no records.
	CodeUnknownServer = "unknown_server"
	// CodeAssessmentFailed reports a two-phase assessment error.
	CodeAssessmentFailed = "assessment_failed"
	// CodeUnknownType reports an unregistered request type.
	CodeUnknownType = "unknown_type"
	// CodeDeadlineExceeded reports a request that exceeded the server's
	// per-request deadline; the connection stays usable.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeCanceled reports a request abandoned because the server is
	// shutting down past its drain grace period.
	CodeCanceled = "canceled"
	// CodeInternal reports an unexpected server-side failure.
	CodeInternal = "internal"
	// CodeResponseTooLarge reports that the answer to a well-formed request
	// encodes above MaxFrame and cannot be framed — an assess.batch over very
	// long histories, typically. Nothing was sent but this error; the
	// connection stays usable and a smaller request (fewer servers per batch)
	// succeeds.
	CodeResponseTooLarge = "response_too_large"
	// CodeUnavailable reports that a cluster peer needed to answer the
	// request could not be reached. The request may succeed on retry once
	// the peer recovers; the connection that reported it stays usable.
	CodeUnavailable = "unavailable"
)

// UnattributableID is the envelope id used in error frames that cannot be
// correlated to a request — typically a frame the server failed to parse.
// Clients never issue request id 0 (ids start at 1), so an error frame with
// id 0 is connection-fatal: the stream may be desynchronised and the client
// must redial.
const UnattributableID uint64 = 0

// Protocol errors.
var (
	// ErrFrameTooLarge reports a frame above MaxFrame.
	ErrFrameTooLarge = errors.New("wire: frame too large")
	// ErrBadVersion reports a payload in a codec revision this end does not
	// read: a binary payload on a bridged connection (see Codec.ReadFrame).
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	// ErrBadMessage reports a malformed frame or payload.
	ErrBadMessage = errors.New("wire: malformed message")
	// ErrUnknownType reports a frame whose type code this build has no name
	// for — a type a newer peer added, say. It is the one ErrBadMessage that
	// is not connection-fatal: ReadV2Into has read the frame whole and
	// returns its id, so the frame is answered on its own.
	ErrUnknownType = fmt.Errorf("%w: unknown type", ErrBadMessage)
)

// Envelope is one frame: its message type, request id and payload bytes.
type Envelope struct {
	Type    MsgType
	ID      uint64
	Payload []byte
	// Binary marks Payload as the per-type binary encoding rather than JSON
	// (frame flag bit 0 clear).
	Binary bool
	// Names, Bindings and Mirror mark a binary Payload headed by a name
	// section, a binding section and a mirror section (frame flag bits 3, 1
	// and 2): what the frame adds to its connection's state.
	Names, Bindings, Mirror bool
	// plan is what the frame does to its connection (Codec.Commit).
	plan framePlan
}

// SubmitRequest submits one feedback record.
type SubmitRequest struct {
	Feedback feedback.Feedback `json:"feedback"`
}

// SubmitResponse acknowledges a submission.
type SubmitResponse struct {
	// Stored is false when the record was a duplicate.
	Stored bool `json:"stored"`
}

// BatchRequest submits many feedback records in one frame — at most
// MaxSubmitBatch per request. Records are processed in order; invalid
// records fail their own item slot and are reported per record in the
// response, while every valid record is stored.
type BatchRequest struct {
	Records []feedback.Feedback `json:"records"`
}

// BatchView is a submit.batch request as the node decodes it: the same
// payload as BatchRequest, its records one RecordBatch.
type BatchView struct {
	Records RecordBatch `json:"records"`
}

// RecordBatch is a list of records as a node carries them: one column
// batch (ADR 0021). A binary payload decodes straight into Batch, valid by
// construction. A JSON payload — a bridged peer's — is a list of records,
// of which Batch takes the valid ones; Invalid is then nil, or says for
// each record of the list why it is not in Batch.
type RecordBatch struct {
	Batch   *feedback.Batch
	Invalid []error
}

// Len returns the number of records the list holds, valid or not.
func (rb RecordBatch) Len() int {
	if rb.Invalid != nil {
		return len(rb.Invalid)
	}
	if rb.Batch == nil {
		return 0
	}
	return rb.Batch.Len()
}

// MarshalJSON writes the batch as the list of its records. A list with
// invalid records has no encoding: it is only ever decoded.
func (rb RecordBatch) MarshalJSON() ([]byte, error) {
	if rb.Invalid != nil {
		return nil, errors.New("a record batch with invalid records")
	}
	var recs []feedback.Feedback
	if rb.Batch != nil {
		recs = rb.Batch.Records()
	}
	return json.Marshal(recs)
}

// UnmarshalJSON reads a list of records into the batch.
func (rb *RecordBatch) UnmarshalJSON(data []byte) error {
	var recs []feedback.Feedback
	if err := json.Unmarshal(data, &recs); err != nil {
		return err
	}
	rb.Batch, rb.Invalid = feedback.Pack(recs)
	return nil
}

// BatchReject reports one record of a batch that was not stored.
type BatchReject struct {
	// Index is the record's position in the request.
	Index int `json:"index"`
	// Reason is the validation error.
	Reason string `json:"reason"`
}

// SubmitBatchItem is one record's outcome within a batch response. On
// success Error is nil and Stored reports whether the record was new
// (false with a nil Error means it was a duplicate, exactly as a single
// submit response would report); on failure Error holds the per-item error
// — an invalid record fails its own slot, never the batch.
type SubmitBatchItem struct {
	Stored bool           `json:"stored"`
	Error  *ErrorResponse `json:"error,omitempty"`
}

// BatchResponse acknowledges a batch submission with a per-record report.
// Items align with the request: Items[i] is the outcome for Records[i],
// always with len(Items) == len(Records). The aggregate counters are
// derived from the items (NewBatchResponse) and kept for at-a-glance
// callers: Stored + Duplicates + len(Rejected) always equals the request
// size. The binary payload carries the items alone.
type BatchResponse struct {
	// Stored is the number of new records.
	Stored int `json:"stored"`
	// Duplicates is the number of records already present.
	Duplicates int `json:"duplicates"`
	// Rejected lists the records that failed, in request order.
	Rejected []BatchReject `json:"rejected,omitempty"`
	// Items is the per-record report, aligned with the request records.
	Items []SubmitBatchItem `json:"items,omitempty"`
}

// NewBatchResponse returns the report of items, its totals derived from
// them: a rejection's Reason is its item's Error.Message.
func NewBatchResponse(items []SubmitBatchItem) BatchResponse {
	resp := BatchResponse{Items: items}
	for i, item := range items {
		switch {
		case item.Error != nil:
			resp.Rejected = append(resp.Rejected, BatchReject{Index: i, Reason: item.Error.Message})
		case item.Stored:
			resp.Stored++
		default:
			resp.Duplicates++
		}
	}
	return resp
}

// derived reports whether p's totals are the ones its items derive.
func (p BatchResponse) derived() bool {
	want := NewBatchResponse(p.Items)
	return p.Stored == want.Stored && p.Duplicates == want.Duplicates && slices.Equal(p.Rejected, want.Rejected)
}

// HistoryRequest fetches a server's records.
type HistoryRequest struct {
	Server feedback.EntityID `json:"server"`
	// Limit caps the number of most recent records returned; 0 means all.
	Limit int `json:"limit,omitempty"`
}

// HistoryResponse carries a server's records in time order.
type HistoryResponse struct {
	Records []feedback.Feedback `json:"records"`
	// Total is the full history length, which may exceed len(Records) when
	// Limit truncated the response.
	Total int `json:"total"`
}

// AssessRequest asks the server to run two-phase trust assessment.
type AssessRequest struct {
	Server feedback.EntityID `json:"server"`
	// Threshold is the client's trust threshold for the accept decision.
	Threshold float64 `json:"threshold"`
}

// AssessResponse carries the assessment outcome: the two-phase assessment
// of the server's stored history and the accept decision at the request's
// threshold.
type AssessResponse struct {
	Assessment core.Assessment `json:"assessment"`
	Accept     bool            `json:"accept"`
	// Judged is the history the assessment judged, beside it and never on
	// the wire itself: a connection's encoder mirrors its good bits, so that
	// the chain of a server the connection has carried before rides without
	// its window counts (ADR 0006). Nil when unknown —
	// a decoded or forwarded assessment — which the encoder writes whole.
	Judged *feedback.History `json:"-"`
}

// AssessBatchRequest asks the server to assess many candidate servers in
// one frame — the EigenTrust-style "rank my candidates" read path. At most
// MaxAssessBatch servers per request; one threshold applies to every item.
type AssessBatchRequest struct {
	Servers   []feedback.EntityID `json:"servers"`
	Threshold float64             `json:"threshold"`
}

// AssessBatchItem is one server's outcome within a batch response. Exactly
// one of the two shapes is populated: on success Error is nil and the
// embedded AssessResponse carries the assessment, as a single assess
// response does; on failure Error
// holds the per-item error — an unknown server fails its own slot, never
// the batch.
type AssessBatchItem struct {
	Server feedback.EntityID `json:"server"`
	AssessResponse
	Error *ErrorResponse `json:"error,omitempty"`
}

// AssessBatchResponse answers an assess.batch request. Items align with the
// request: Items[i] is the outcome for Servers[i], always with
// len(Items) == len(Servers).
type AssessBatchResponse struct {
	Items []AssessBatchItem `json:"items"`
}

// SummaryMsg opens an anti-entropy exchange (gossip.summary): the node
// that sends it and the store's checksum of every server it holds, scoped
// to its replica sets on a cluster. The binary payload names the servers in
// ascending order, so that equal summaries are equal bytes.
type SummaryMsg struct {
	Node    string                    `json:"node"`
	Servers map[string]store.Checksum `json:"servers"`
}

// SummaryResp answers a summary (gossip.summary.resp): Stale lists, in
// ascending order, the servers whose record sets differ from the summary's
// and whose replica sets hold its sender, and Records holds the responder's
// whole histories of as many of them, in that order, as fit its bound.
type SummaryResp struct {
	Stale   []string    `json:"stale"`
	Records RecordBatch `json:"records"`
}

// ErrorResponse reports a request failure.
type ErrorResponse struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface so clients can return it directly.
func (e *ErrorResponse) Error() string {
	return fmt.Sprintf("wire: remote error %s: %s", e.Code, e.Message)
}

// DecodePayload unmarshals an envelope's payload into out as V2Codec
// decodes it: a binary frame as a connection of its own — committed into a
// fresh state, its binding section all the bindings its verdicts read.
func DecodePayload(env Envelope, out any) error {
	return V2Codec.DecodePayload(env, out)
}
