// Package repclient is the client library for the reputation server: it
// submits feedback, fetches histories, and requests two-phase trust
// assessments over the wire protocol.
//
// Every method has a context-taking variant (PingCtx, SubmitCtx, …) whose
// deadline bounds the round trip; the plain methods delegate with a
// background context and the client's configured timeout. Concurrent callers
// share one pipelined connection: up to WithWindow requests ride in flight at
// once and responses are paired with callers by envelope id, so one slow
// request does not stall the others and a cancelled or timed-out request
// simply abandons its id. A transport failure — a read or write error, an
// unattributable (id 0) error frame — poisons the connection and fails every
// request in flight on it; the next call transparently redials, and if the
// redial fails the error matches ErrConnBroken.
package repclient

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/wire"
)

// DefaultTimeout bounds each request round trip.
const DefaultTimeout = 5 * time.Second

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("repclient: client closed")

// ErrConnBroken reports that the connection was poisoned by an earlier
// transport failure and could not be re-established.
var ErrConnBroken = errors.New("repclient: connection broken")

// Proto named a wire framing when there were two.
//
// Deprecated: the binary frame is the only framing. Proto, ProtoV2 and
// WithProtocol remain only because bench/ still passes them.
type Proto int

// ProtoV2 is the binary frame.
//
// Deprecated: see Proto.
const ProtoV2 Proto = 2

// Client is a reputation-server client, safe for concurrent use: requests
// are pipelined through one multiplexed connection (see the package
// comment).
type Client struct {
	addr    string
	timeout time.Duration
	window  int
	// addrs and rtts are set by DialCluster: the full candidate address
	// list and the probed round trip per address. Redials then walk the
	// candidates in failover order instead of retrying one address (see
	// probe.go). Guarded by mu after the client escapes DialCluster.
	addrs []string
	rtts  map[string]time.Duration

	mu     sync.Mutex
	mux    *mux
	nextID uint64
	closed bool
}

// Option configures a Client.
type Option func(*Client)

// WithTimeout overrides the per-request timeout.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithProtocol does nothing.
//
// Deprecated: see Proto.
func WithProtocol(Proto) Option {
	return func(*Client) {}
}

// WithWindow overrides the in-flight window (DefaultWindow when n <= 0).
func WithWindow(n int) Option {
	return func(c *Client) { c.window = n }
}

// Dial connects to a reputation server and completes the handshake.
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{addr: addr, timeout: DefaultTimeout, window: DefaultWindow}
	for _, o := range opts {
		o(c)
	}
	ctx := context.Background()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	if err := c.connectLocked(ctx); err != nil {
		return nil, fmt.Errorf("repclient: dial %s: %w", addr, err)
	}
	return c, nil
}

// connectLocked dials c.addr, runs the handshake and installs a fresh mux.
// Called with c.mu held (or from Dial, before the client escapes its
// goroutine).
func (c *Client) connectLocked(ctx context.Context) error {
	d := net.Dialer{Timeout: c.timeout}
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return err
	}
	reader, codec, err := handshake(nc, c.timeout)
	if err != nil {
		_ = nc.Close()
		return err
	}
	c.mux = newMux(nc, reader, c.window, codec)
	return nil
}

// Close releases the connection. It is idempotent, and a connection the
// demux already closed — the peer hung up — is released, not an error.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if err := c.mux.nc.Close(); !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// redialLocked replaces a poisoned connection, re-running the handshake —
// across every configured address, in failover order, for a cluster client.
// Called with c.mu held.
func (c *Client) redialLocked(ctx context.Context) error {
	_ = c.mux.nc.Close()
	if err := c.connectAnyLocked(ctx); err != nil {
		return fmt.Errorf("%w: redial %s: %v", ErrConnBroken, c.addr, err)
	}
	return nil
}

// transportErr dresses a transport failure, preferring the context's own
// error when the failure was caused by cancellation or deadline expiry.
func (c *Client) transportErr(ctx context.Context, reqType wire.MsgType, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return fmt.Errorf("repclient: %s: %w", reqType, cerr)
	}
	return fmt.Errorf("repclient: %s: %w", reqType, err)
}

// Ping checks connectivity.
func (c *Client) Ping() error { return c.PingCtx(context.Background()) }

// PingCtx is Ping bounded by ctx.
func (c *Client) PingCtx(ctx context.Context) error {
	return c.muxRoundTrip(ctx, wire.TypePing, wire.TypePong, nil, nil)
}

// Submit stores one feedback record; it reports whether the record was new.
func (c *Client) Submit(f feedback.Feedback) (bool, error) {
	return c.SubmitCtx(context.Background(), f)
}

// SubmitCtx is Submit bounded by ctx.
func (c *Client) SubmitCtx(ctx context.Context, f feedback.Feedback) (bool, error) {
	var resp wire.SubmitResponse
	if err := c.muxRoundTrip(ctx, wire.TypeSubmit, wire.TypeSubmitR, wire.SubmitRequest{Feedback: f}, &resp); err != nil {
		return false, err
	}
	return resp.Stored, nil
}

// SubmitBatchReport stores many records in one round trip (or several:
// batches above wire.MaxSubmitBatch are chunked transparently and the chunk
// responses merged) and returns the server's per-record report. Items[i]
// answers recs[i] and invalid records do not abort the batch: every valid
// record is stored and each rejected one is listed with its request index
// and reason. Only transport and request-level failures return an error;
// records of chunks submitted before such a failure stay stored.
func (c *Client) SubmitBatchReport(recs []feedback.Feedback) (wire.BatchResponse, error) {
	return c.SubmitBatchReportCtx(context.Background(), recs)
}

// SubmitBatchReportCtx is SubmitBatchReport bounded by ctx. The deadline
// covers the whole call: every chunk's round trip runs under the same ctx.
func (c *Client) SubmitBatchReportCtx(ctx context.Context, recs []feedback.Feedback) (wire.BatchResponse, error) {
	if len(recs) == 0 {
		return wire.BatchResponse{}, nil
	}
	var items []wire.SubmitBatchItem
	for start := 0; start < len(recs); start += wire.MaxSubmitBatch {
		chunk := recs[start:min(start+wire.MaxSubmitBatch, len(recs))]
		var resp wire.BatchResponse
		if err := c.muxRoundTrip(ctx, wire.TypeSubmitB, wire.TypeSubmitBR, wire.BatchRequest{Records: chunk}, &resp); err != nil {
			return wire.BatchResponse{}, err
		}
		if len(resp.Items) != len(chunk) {
			// The protocol guarantees one item per submitted record; a
			// mismatch means the report cannot be aligned with the request.
			return wire.BatchResponse{}, fmt.Errorf("repclient: submit batch returned %d items for %d records",
				len(resp.Items), len(chunk))
		}
		if len(recs) <= wire.MaxSubmitBatch {
			return wire.NewBatchResponse(resp.Items), nil // one chunk: its items are the report
		}
		items = append(items, resp.Items...)
	}
	return wire.NewBatchResponse(items), nil
}

// SubmitBatch stores many records in one round trip, reporting how many
// were new and how many duplicates. When the server rejected records, the
// counts are returned together with an error naming the first rejection.
func (c *Client) SubmitBatch(recs []feedback.Feedback) (stored, duplicates int, err error) {
	return c.SubmitBatchCtx(context.Background(), recs)
}

// SubmitBatchCtx is SubmitBatch bounded by ctx.
func (c *Client) SubmitBatchCtx(ctx context.Context, recs []feedback.Feedback) (stored, duplicates int, err error) {
	resp, err := c.SubmitBatchReportCtx(ctx, recs)
	if err != nil {
		return 0, 0, err
	}
	if len(resp.Rejected) > 0 {
		r := resp.Rejected[0]
		return resp.Stored, resp.Duplicates, fmt.Errorf(
			"repclient: batch rejected %d of %d records (first: record %d: %s)",
			len(resp.Rejected), len(recs), r.Index, r.Reason)
	}
	return resp.Stored, resp.Duplicates, nil
}

// History fetches up to limit most recent records of a server (0 = server
// default), along with the full history length.
func (c *Client) History(server feedback.EntityID, limit int) ([]feedback.Feedback, int, error) {
	return c.HistoryCtx(context.Background(), server, limit)
}

// HistoryCtx is History bounded by ctx.
func (c *Client) HistoryCtx(ctx context.Context, server feedback.EntityID, limit int) ([]feedback.Feedback, int, error) {
	var resp wire.HistoryResponse
	req := wire.HistoryRequest{Server: server, Limit: limit}
	if err := c.muxRoundTrip(ctx, wire.TypeHistory, wire.TypeHistoryR, req, &resp); err != nil {
		return nil, 0, err
	}
	return resp.Records, resp.Total, nil
}

// Assess runs a server-side two-phase assessment and accept decision.
func (c *Client) Assess(server feedback.EntityID, threshold float64) (wire.AssessResponse, error) {
	return c.AssessCtx(context.Background(), server, threshold)
}

// AssessCtx is Assess bounded by ctx.
func (c *Client) AssessCtx(ctx context.Context, server feedback.EntityID, threshold float64) (wire.AssessResponse, error) {
	var resp wire.AssessResponse
	req := wire.AssessRequest{Server: server, Threshold: threshold}
	err := c.muxRoundTrip(ctx, wire.TypeAssess, wire.TypeAssessR, req, &resp)
	return resp, err
}

// AssessBatch assesses many servers in one round trip (or several: requests
// above wire.MaxAssessBatch are chunked transparently and the chunk
// responses concatenated). Items[i] answers servers[i] and per-server
// failures — unknown servers above all — land in their item's Error slot
// without failing the batch; only transport and request-level failures
// return an error, in which case no items are returned (a partially
// assessed prefix would be indistinguishable from a short response).
func (c *Client) AssessBatch(servers []feedback.EntityID, threshold float64) ([]wire.AssessBatchItem, error) {
	return c.AssessBatchCtx(context.Background(), servers, threshold)
}

// AssessBatchCtx is AssessBatch bounded by ctx. The deadline covers the
// whole call: every chunk's round trip runs under the same ctx.
func (c *Client) AssessBatchCtx(ctx context.Context, servers []feedback.EntityID, threshold float64) ([]wire.AssessBatchItem, error) {
	if len(servers) == 0 {
		return nil, errors.New("repclient: empty assess batch")
	}
	items := make([]wire.AssessBatchItem, 0, len(servers))
	for start := 0; start < len(servers); start += wire.MaxAssessBatch {
		chunk := servers[start:min(start+wire.MaxAssessBatch, len(servers))]
		var resp wire.AssessBatchResponse
		req := wire.AssessBatchRequest{Servers: chunk, Threshold: threshold}
		if err := c.muxRoundTrip(ctx, wire.TypeAssessB, wire.TypeAssessBR, req, &resp); err != nil {
			return nil, err
		}
		if len(resp.Items) != len(chunk) {
			// The protocol guarantees one item per requested server; a
			// mismatch means the response cannot be aligned with the request.
			return nil, fmt.Errorf("repclient: assess batch returned %d items for %d servers",
				len(resp.Items), len(chunk))
		}
		items = append(items, resp.Items...)
	}
	return items, nil
}
