// Package repclient is the client library for the reputation server: it
// submits feedback, fetches histories, and requests two-phase trust
// assessments over the wire protocol.
//
// Every method has a context-taking variant (PingCtx, SubmitCtx, …) whose
// deadline bounds the round trip; the plain methods delegate with a
// background context and the client's configured timeout. After any
// transport failure — timeout, short read, id mismatch, unattributable
// error frame — the connection is poisoned (a late response could otherwise
// be read as the answer to the next request) and the client transparently
// redials on the next call; if the redial fails the error matches
// ErrConnBroken.
//
// By default the client negotiates the binary v2 protocol at dial time and
// falls back to JSON when the server predates it (ProtoAuto). On a v2
// connection concurrent callers share one pipelined connection: up to
// WithWindow requests ride in flight at once and responses are paired with
// callers by envelope id, so one slow request does not stall the others and
// a cancelled request simply abandons its id instead of poisoning the
// stream. WithProtocol(ProtoJSON) restores the exact pre-v2 lock-step
// behaviour.
package repclient

import (
	"bufio"
	"context"
	"encoding/json"
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

// Proto selects the wire protocol a client speaks.
type Proto int

const (
	// ProtoAuto attempts the v2 handshake and falls back to JSON when the
	// server does not speak v2, or acks a version of it this client does not
	// (wire.VersionV2). The fallback is sticky: once a server answers in
	// JSON, redials skip the handshake.
	ProtoAuto Proto = iota
	// ProtoJSON speaks the v1 JSON protocol only — byte-for-byte the
	// pre-v2 client, lock-step over one connection.
	ProtoJSON
	// ProtoV2 requires the binary v2 protocol; dialing a JSON-only server
	// fails with an error matching wire.ErrNotV2, one that acks another
	// version with wire.ErrBadVersion.
	ProtoV2
)

// Client is a reputation-server client, safe for concurrent use. On a JSON
// connection requests are serialised lock-step over one connection; on a
// negotiated v2 connection they are pipelined through a shared multiplexer
// (see the package comment).
type Client struct {
	addr    string
	timeout time.Duration
	proto   Proto
	window  int
	// addrs and rtts are set by DialCluster: the full candidate address
	// list and the probed round trip per address. Redials then walk the
	// candidates in failover order instead of retrying one address (see
	// probe.go). Guarded by mu after the client escapes DialCluster.
	addrs []string
	rtts  map[string]time.Duration

	mu     sync.Mutex
	conn   net.Conn
	reader *bufio.Reader
	mux    *mux // non-nil iff the current connection negotiated v2
	nextID uint64
	closed bool
	// broken marks a JSON connection poisoned: a request died
	// mid-round-trip, so a late response may still be in flight and the
	// stream cannot be trusted to pair responses with requests. The next
	// round trip redials. (v2 connections track poisoning in mux.err —
	// see mux.dead — because any of many in-flight callers may poison.)
	broken bool
}

// Option configures a Client.
type Option func(*Client)

// WithTimeout overrides the per-request timeout.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithProtocol pins the wire protocol instead of auto-negotiating.
func WithProtocol(p Proto) Option {
	return func(c *Client) { c.proto = p }
}

// WithWindow overrides the v2 in-flight window (DefaultWindow when n <= 0;
// no effect on JSON connections, which are lock-step by construction).
func WithWindow(n int) Option {
	return func(c *Client) { c.window = n }
}

// Dial connects to a reputation server and negotiates the wire protocol
// according to the configured Proto (ProtoAuto by default).
func Dial(addr string, opts ...Option) (*Client, error) {
	c := &Client{addr: addr, timeout: DefaultTimeout, proto: ProtoAuto, window: DefaultWindow}
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

// Protocol reports the wire protocol of the current connection: "v2" or
// "json".
func (c *Client) Protocol() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mux != nil {
		return "v2"
	}
	return "json"
}

// connectLocked dials and negotiates a fresh connection per c.proto,
// installing either a pipelined v2 mux or a lock-step JSON reader. Called
// with c.mu held (or from Dial, before the client escapes its goroutine).
func (c *Client) connectLocked(ctx context.Context) error {
	d := net.Dialer{Timeout: c.timeout}
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	if err != nil {
		return err
	}
	if c.proto != ProtoJSON {
		reader, nerr := negotiateV2(nc, c.timeout)
		if nerr == nil {
			c.conn = nc
			c.reader = nil
			c.mux = newMux(nc, reader, c.window)
			c.broken = false
			return nil
		}
		_ = nc.Close()
		if c.proto == ProtoV2 || !errors.Is(nerr, wire.ErrNotV2) && !errors.Is(nerr, wire.ErrBadVersion) {
			return nerr
		}
		// ProtoAuto against a server without this client's binary protocol:
		// a JSON-only one answered the hello with its id-0 error frame and
		// closed, one built before a codec revision acked a version this
		// client has no decoder for. Either way redial and speak JSON. Pin
		// the choice so redials skip the wasted handshake round trip.
		c.proto = ProtoJSON
		if nc, err = d.DialContext(ctx, "tcp", c.addr); err != nil {
			return err
		}
	}
	c.conn = nc
	c.reader = bufio.NewReader(nc)
	c.mux = nil
	c.broken = false
	return nil
}

// Close releases the connection. It is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// redialLocked replaces a poisoned connection, re-running protocol
// negotiation — across every configured address, in failover order, for a
// cluster client. Called with c.mu held.
func (c *Client) redialLocked(ctx context.Context) error {
	_ = c.conn.Close()
	if err := c.connectAnyLocked(ctx); err != nil {
		return fmt.Errorf("%w: redial %s: %v", ErrConnBroken, c.addr, err)
	}
	return nil
}

// deadline derives the round-trip deadline: the context's deadline when it
// has one, the configured timeout otherwise.
func (c *Client) deadline(ctx context.Context) time.Time {
	if d, ok := ctx.Deadline(); ok {
		return d
	}
	return time.Now().Add(c.timeout)
}

// roundTrip sends one request and decodes the matching response into out
// (skipped when out is nil). A TypeError response is returned as a
// *wire.ErrorResponse error. Any transport failure poisons the connection;
// the next round trip redials.
//
// It is a package function rather than a method only because Go methods
// cannot have type parameters: the response type T lets the expected frame
// decode straight into out in one json.Unmarshal — envelope and payload
// together — instead of detouring through a RawMessage. Anything but the
// expected response (error frames, id mismatches, bad versions) takes the
// slow path through wire.Parse for the precise error semantics.
func roundTrip[T any](c *Client, ctx context.Context, reqType, respType wire.MsgType, payload any, out *T) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		c.mu.Unlock()
		return fmt.Errorf("repclient: %s: %w", reqType, err)
	}
	if c.broken || (c.mux != nil && c.mux.dead()) {
		if err := c.redialLocked(ctx); err != nil {
			c.mu.Unlock()
			return err
		}
	}
	c.nextID++
	id := c.nextID
	if mx := c.mux; mx != nil {
		// v2: release the client lock before the round trip so concurrent
		// callers pipeline their requests onto the shared connection.
		c.mu.Unlock()
		return muxRoundTrip(c, mx, ctx, id, reqType, respType, payload, out)
	}
	defer c.mu.Unlock()
	env, err := wire.Encode(reqType, id, payload)
	if err != nil {
		return err
	}
	if err := c.conn.SetDeadline(c.deadline(ctx)); err != nil {
		return fmt.Errorf("repclient: set deadline: %w", err)
	}
	// A cancelled context must interrupt a blocked read, not just a
	// deadline: fire an immediate conn deadline on cancellation. The conn
	// is captured directly (not via c) because roundTrip holds c.mu for the
	// whole call; poking an already-replaced conn is harmless.
	conn := c.conn
	stop := context.AfterFunc(ctx, func() {
		_ = conn.SetDeadline(time.Unix(1, 0))
	})
	defer stop()
	if err := wire.Write(c.conn, env); err != nil {
		c.broken = true
		return c.transportErr(ctx, reqType, err)
	}
	line, err := wire.ReadRaw(c.reader)
	if err != nil {
		c.broken = true
		return c.transportErr(ctx, reqType, fmt.Errorf("read response: %w", err))
	}
	var fast struct {
		V       int          `json:"v"`
		Type    wire.MsgType `json:"type"`
		ID      uint64       `json:"id"`
		Payload *T           `json:"payload"`
	}
	fast.Payload = out
	if err := json.Unmarshal(line, &fast); err == nil &&
		fast.V == wire.Version && fast.Type == respType && fast.ID == id {
		return nil
	}
	resp, err := wire.Parse(line)
	if err != nil {
		c.broken = true
		return c.transportErr(ctx, reqType, fmt.Errorf("read response: %w", err))
	}
	if resp.Type == wire.TypeError && resp.ID == wire.UnattributableID {
		// The server could not parse a frame and cannot say which request
		// the error answers; the stream is desynchronised (PROTOCOL.md
		// documents id 0 as unattributable and connection-fatal).
		c.broken = true
		var e wire.ErrorResponse
		if derr := wire.DecodePayload(resp, &e); derr != nil {
			return derr
		}
		return fmt.Errorf("%w: unattributable server error: %v", ErrConnBroken, &e)
	}
	if resp.ID != id {
		// A response for another id means an earlier abandoned request's
		// late answer: drop the connection before it poisons anything else.
		c.broken = true
		return fmt.Errorf("%w: response id %d for request %d", ErrConnBroken, resp.ID, id)
	}
	if resp.Type == wire.TypeError {
		var e wire.ErrorResponse
		if err := wire.DecodePayload(resp, &e); err != nil {
			return err
		}
		return &e
	}
	if resp.Type != respType {
		return fmt.Errorf("repclient: unexpected response type %s", resp.Type)
	}
	if out == nil {
		return nil
	}
	return wire.DecodePayload(resp, out)
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
	return roundTrip[struct{}](c, ctx, wire.TypePing, wire.TypePong, nil, nil)
}

// Submit stores one feedback record; it reports whether the record was new.
func (c *Client) Submit(f feedback.Feedback) (bool, error) {
	return c.SubmitCtx(context.Background(), f)
}

// SubmitCtx is Submit bounded by ctx.
func (c *Client) SubmitCtx(ctx context.Context, f feedback.Feedback) (bool, error) {
	var resp wire.SubmitResponse
	if err := roundTrip(c, ctx, wire.TypeSubmit, wire.TypeSubmitR, wire.SubmitRequest{Feedback: f}, &resp); err != nil {
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
	out := wire.BatchResponse{Items: make([]wire.SubmitBatchItem, 0, len(recs))}
	for start := 0; start < len(recs); start += wire.MaxSubmitBatch {
		chunk := recs[start:min(start+wire.MaxSubmitBatch, len(recs))]
		var resp wire.BatchResponse
		if err := roundTrip(c, ctx, wire.TypeSubmitB, wire.TypeSubmitBR, wire.BatchRequest{Records: chunk}, &resp); err != nil {
			return wire.BatchResponse{}, err
		}
		if len(resp.Items) != len(chunk) {
			// The protocol guarantees one item per submitted record; a
			// mismatch means the report cannot be aligned with the request.
			return wire.BatchResponse{}, fmt.Errorf("repclient: submit batch returned %d items for %d records",
				len(resp.Items), len(chunk))
		}
		out.Stored += resp.Stored
		out.Duplicates += resp.Duplicates
		for _, rej := range resp.Rejected {
			rej.Index += start
			out.Rejected = append(out.Rejected, rej)
		}
		out.Items = append(out.Items, resp.Items...)
	}
	return out, nil
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
	if err := roundTrip(c, ctx, wire.TypeHistory, wire.TypeHistoryR, req, &resp); err != nil {
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
	err := roundTrip(c, ctx, wire.TypeAssess, wire.TypeAssessR, req, &resp)
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
		if err := roundTrip(c, ctx, wire.TypeAssessB, wire.TypeAssessBR, req, &resp); err != nil {
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
