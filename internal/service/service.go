// Package service is the transport-agnostic request layer shared by the
// serving stack: a handler per message type, wrapped in a composable
// interceptor chain (panic recovery, per-request deadline enforcement,
// per-type metrics, slow-request logging).
//
// Handlers see only a context and an envelope, not how its bytes arrived.
// Interceptors compose like gRPC middleware — each wraps the next handler
// and may short-circuit (the deadline interceptor abandons a stalled handler
// and returns context.DeadlineExceeded while the handler goroutine winds
// down on its own).
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"honestplayer/internal/wire"
)

// Handler serves one request envelope. The returned envelope is written
// back to the caller; a non-nil error is converted to a TypeError frame
// (see ErrorEnvelopeCodec) carrying the request id.
type Handler func(ctx context.Context, env wire.Envelope) (wire.Envelope, error)

// Interceptor wraps a handler with cross-cutting behaviour. The first
// interceptor passed to Chain is the outermost.
type Interceptor func(next Handler) Handler

// Chain wraps h in the given interceptors; the first interceptor is the
// outermost (runs first on the way in, last on the way out).
func Chain(h Handler, interceptors ...Interceptor) Handler {
	for i := len(interceptors) - 1; i >= 0; i-- {
		h = interceptors[i](h)
	}
	return h
}

// Errorf builds a protocol error with an explicit code. Handlers return it
// to produce a typed error frame instead of a generic internal error.
func Errorf(code, format string, args ...any) error {
	return &wire.ErrorResponse{Code: code, Message: fmt.Sprintf(format, args...)}
}

// codecKey carries the connection's negotiated payload codec through the
// request context.
type codecKey struct{}

// WithCodec returns a context carrying the negotiated wire codec. The
// transport sets it once per connection, before dispatching into the
// interceptor chain; the chain threads the context — and with it the codec —
// into every handler.
func WithCodec(ctx context.Context, c wire.Codec) context.Context {
	return context.WithValue(ctx, codecKey{}, c)
}

// CodecFrom returns the negotiated codec from the request context,
// defaulting to wire.V2Codec when none was negotiated (in-process callers,
// tests).
func CodecFrom(ctx context.Context) wire.Codec {
	if c, ok := ctx.Value(codecKey{}).(wire.Codec); ok {
		return c
	}
	return wire.V2Codec
}

// ErrorResponseFrom converts a handler error into its protocol form.
// Protocol errors (*wire.ErrorResponse) keep their code; context expiry maps
// to wire.CodeDeadlineExceeded / wire.CodeCanceled; everything else is
// wire.CodeInternal.
func ErrorResponseFrom(err error) *wire.ErrorResponse {
	var proto *wire.ErrorResponse
	switch {
	case errors.As(err, &proto):
		return proto
	case errors.Is(err, context.DeadlineExceeded):
		return &wire.ErrorResponse{Code: wire.CodeDeadlineExceeded, Message: err.Error()}
	case errors.Is(err, context.Canceled):
		return &wire.ErrorResponse{Code: wire.CodeCanceled, Message: err.Error()}
	default:
		return &wire.ErrorResponse{Code: wire.CodeInternal, Message: err.Error()}
	}
}

// ErrorEnvelopeCodec converts a handler error into a TypeError envelope in
// the given codec, with ErrorResponseFrom's code mapping.
func ErrorEnvelopeCodec(c wire.Codec, id uint64, err error) wire.Envelope {
	env, encErr := c.Encode(wire.TypeError, id, ErrorResponseFrom(err))
	if encErr != nil {
		// An ErrorResponse always encodes; this is unreachable, but never
		// return a zero envelope from an error path.
		env, _ = c.Encode(wire.TypeError, id, wire.ErrorResponse{Code: wire.CodeInternal, Message: "encode error response"})
	}
	return env
}

// panicError carries a panic value recovered on another goroutine (the
// Deadline interceptor's handler goroutine) back to the calling chain as an
// ordinary error, so Recover can log and convert it even though a deferred
// recover() on the calling goroutine could never catch it.
type panicError struct {
	value any
}

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.value) }

// Recover returns an interceptor converting handler panics into internal
// errors so one bad request cannot take down the whole process. It handles
// both panics on the calling goroutine and panics recovered on the Deadline
// interceptor's handler goroutine (surfaced as a *panicError). logf
// receives a diagnostic line (nil disables logging).
func Recover(logf func(format string, args ...any)) Interceptor {
	return func(next Handler) Handler {
		return func(ctx context.Context, env wire.Envelope) (out wire.Envelope, err error) {
			defer func() {
				if r := recover(); r != nil {
					if logf != nil {
						logf("panic serving %s id=%d: %v", env.Type, env.ID, r)
					}
					out, err = wire.Envelope{}, Errorf(wire.CodeInternal, "internal error serving %s", env.Type)
				}
			}()
			out, err = next(ctx, env)
			var pe *panicError
			if errors.As(err, &pe) {
				if logf != nil {
					logf("panic serving %s id=%d: %v", env.Type, env.ID, pe.value)
				}
				out, err = wire.Envelope{}, Errorf(wire.CodeInternal, "internal error serving %s", env.Type)
			}
			return out, err
		}
	}
}

// deadlineResult is what a handler run on a deadline worker reports back.
type deadlineResult struct {
	env wire.Envelope
	err error
}

// deadlineJob is one handler invocation shipped to a deadline worker. done
// is per-job and buffered so an abandoned job's completion never blocks the
// worker (the interceptor has long since returned ctx.Err()).
type deadlineJob struct {
	ctx  context.Context
	env  wire.Envelope
	next Handler
	done chan deadlineResult
}

// deadlineWorkers pools idle handler-worker goroutines. Spawning a fresh
// goroutine per request makes every deep handler call chain regrow a cold
// 2KB stack — the runtime's stack-copy machinery then dominates cheap
// requests (it profiled at ~5µs/request on the pipelined v2 transport,
// where no round-trip latency hides it). A pooled worker keeps its grown
// stack warm across requests. The pool never blocks: a full pool lets the
// worker exit, an empty pool spawns a new one.
var deadlineWorkers = make(chan chan deadlineJob, 64)

func runDeadlineWorker(jobs chan deadlineJob) {
	for job := range jobs {
		func() {
			// recover() only catches panics on its own goroutine, so an
			// outer Recover interceptor cannot see a panic raised here.
			// Convert it to a *panicError result instead; Recover treats
			// that error exactly like a direct panic.
			defer func() {
				if r := recover(); r != nil {
					job.done <- deadlineResult{wire.Envelope{}, &panicError{value: r}}
				}
			}()
			env, err := job.next(job.ctx, job.env)
			job.done <- deadlineResult{env, err}
		}()
		select {
		case deadlineWorkers <- jobs:
		default:
			return // pool full: let this worker die
		}
	}
}

// deadlineTimers pools the per-request timeout timers. Deriving a timer
// context per request (context.WithTimeout) costs close to a microsecond in
// allocation and runtime-timer churn; a pooled bare timer enforces the same
// bound in the interceptor's select. Timers are always returned to the pool
// stopped and drained (Go 1.22 timer-channel semantics).
var deadlineTimers = sync.Pool{New: func() any {
	t := time.NewTimer(time.Hour)
	if !t.Stop() {
		<-t.C
	}
	return t
}}

// Deadline returns an interceptor that bounds each request to d (no bound
// when d <= 0) and enforces context cancellation even against a handler
// that never returns: the handler runs on a pooled worker goroutine and the
// interceptor abandons it when the bound expires first, returning
// context.DeadlineExceeded (or ctx.Err() on parent cancellation). The
// handler's context is derived cancellable — not with a deadline — so an
// abandoned handler still observes cancellation and can stop cooperatively;
// the bound itself lives in a pooled timer, off the context. The abandoned
// worker finishes in the background — its result is discarded through the
// job's buffered channel, and only then does the worker take another job —
// so an abandoned handler can never be interleaved with a later request.
func Deadline(d time.Duration) Interceptor {
	return func(next Handler) Handler {
		return func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
			var timeoutC <-chan time.Time
			if d > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithCancel(ctx)
				defer cancel()
				t := deadlineTimers.Get().(*time.Timer)
				t.Reset(d)
				defer func() {
					if !t.Stop() {
						select {
						case <-t.C:
						default:
						}
					}
					deadlineTimers.Put(t)
				}()
				timeoutC = t.C
			}
			var jobs chan deadlineJob
			select {
			case jobs = <-deadlineWorkers:
			default:
				jobs = make(chan deadlineJob, 1)
				go runDeadlineWorker(jobs)
			}
			done := make(chan deadlineResult, 1)
			jobs <- deadlineJob{ctx: ctx, env: env, next: next, done: done}
			select {
			case r := <-done:
				return r.env, r.err
			case <-ctx.Done():
				return wire.Envelope{}, ctx.Err()
			case <-timeoutC:
				return wire.Envelope{}, context.DeadlineExceeded
			}
		}
	}
}

// WithMetrics returns an interceptor recording per-type request counts,
// error counts, and latency into m. It sits outside the deadline
// interceptor so a timed-out request is observed at its timeout (with a
// deadline_exceeded error), not whenever the abandoned handler finishes.
func WithMetrics(m *Metrics) Interceptor {
	return func(next Handler) Handler {
		return func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
			start := time.Now()
			out, err := next(ctx, env)
			m.Observe(env.Type, time.Since(start), err != nil)
			return out, err
		}
	}
}

// SlowLog returns an interceptor logging any request slower than threshold
// (disabled when threshold <= 0 or logf is nil).
func SlowLog(logf func(format string, args ...any), threshold time.Duration) Interceptor {
	return func(next Handler) Handler {
		if threshold <= 0 || logf == nil {
			return next
		}
		return func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
			start := time.Now()
			out, err := next(ctx, env)
			if elapsed := time.Since(start); elapsed >= threshold {
				logf("slow request: %s id=%d took %s (err=%v)", env.Type, env.ID, elapsed, err)
			}
			return out, err
		}
	}
}
