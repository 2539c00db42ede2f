package service

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"honestplayer/internal/wire"
)

func okHandler(t wire.MsgType) Handler {
	return func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
		return wire.V2Codec.Encode(t, env.ID, nil)
	}
}

func TestChainOrder(t *testing.T) {
	var order []string
	mk := func(name string) Interceptor {
		return func(next Handler) Handler {
			return func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
				order = append(order, name+"-in")
				out, err := next(ctx, env)
				order = append(order, name+"-out")
				return out, err
			}
		}
	}
	h := Chain(okHandler(wire.TypePong), mk("a"), mk("b"))
	if _, err := h(context.Background(), wire.Envelope{Type: wire.TypePing}); err != nil {
		t.Fatal(err)
	}
	want := []string{"a-in", "b-in", "b-out", "a-out"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestRecoverInterceptor(t *testing.T) {
	var logged string
	h := Chain(func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
		panic("boom")
	}, Recover(func(format string, args ...any) { logged = format }))
	_, err := h(context.Background(), wire.Envelope{Type: wire.TypePing, ID: 3})
	var proto *wire.ErrorResponse
	if !errors.As(err, &proto) || proto.Code != wire.CodeInternal {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(logged, "panic") {
		t.Fatalf("panic not logged: %q", logged)
	}
}

// TestRecoverCatchesPanicAcrossDeadlineGoroutine is the regression test for
// the full server pipeline shape: Deadline runs the handler on its own
// goroutine, where a deferred recover() in Recover (on the calling
// goroutine) can never catch a panic. The Deadline goroutine must convert
// the panic into an error that Recover logs and maps to an internal error —
// without it, a panicking handler kills the whole process.
func TestRecoverCatchesPanicAcrossDeadlineGoroutine(t *testing.T) {
	panicking := func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
		panic("boom across goroutines")
	}
	for _, d := range []time.Duration{time.Second, 0} { // deadline set and unset
		var logged string
		h := Chain(panicking, Recover(func(format string, args ...any) {
			logged = format
		}), Deadline(d))
		_, err := h(context.Background(), wire.Envelope{Type: wire.TypePing, ID: 3})
		var proto *wire.ErrorResponse
		if !errors.As(err, &proto) || proto.Code != wire.CodeInternal {
			t.Fatalf("Deadline(%v): err = %v", d, err)
		}
		if !strings.Contains(logged, "panic") {
			t.Fatalf("Deadline(%v): panic not logged: %q", d, logged)
		}
	}
}

// TestDeadlineAloneSurvivesPanic: even without Recover above it, a panic on
// the Deadline goroutine must surface as an error, not crash the process.
func TestDeadlineAloneSurvivesPanic(t *testing.T) {
	h := Chain(func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
		panic("boom")
	}, Deadline(time.Second))
	_, err := h(context.Background(), wire.Envelope{Type: wire.TypePing})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v", err)
	}
}

func TestDeadlineInterceptorStallsReturnDeadlineExceeded(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	h := Chain(func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
		<-release
		return wire.V2Codec.Encode(wire.TypePong, env.ID, nil)
	}, Deadline(30*time.Millisecond))
	start := time.Now()
	_, err := h(context.Background(), wire.Envelope{Type: wire.TypePing})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("deadline interceptor did not abandon the stalled handler promptly")
	}
}

func TestDeadlineInterceptorFastHandlerPasses(t *testing.T) {
	h := Chain(okHandler(wire.TypePong), Deadline(time.Second))
	resp, err := h(context.Background(), wire.Envelope{Type: wire.TypePing, ID: 9})
	if err != nil || resp.Type != wire.TypePong || resp.ID != 9 {
		t.Fatalf("resp = %+v, %v", resp, err)
	}
}

func TestDeadlineInterceptorHonoursParentCancellation(t *testing.T) {
	// Even with no per-request timeout the interceptor must release the
	// caller when the base context is cancelled (forced shutdown).
	release := make(chan struct{})
	defer close(release)
	h := Chain(func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
		<-release
		return wire.Envelope{}, nil
	}, Deadline(0))
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, err := h(ctx, wire.Envelope{Type: wire.TypePing})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestErrorEnvelopeMapping(t *testing.T) {
	cases := []struct {
		err  error
		code string
	}{
		{Errorf(wire.CodeBadRequest, "missing %s", "server"), wire.CodeBadRequest},
		{context.DeadlineExceeded, wire.CodeDeadlineExceeded},
		{context.Canceled, wire.CodeCanceled},
		{errors.New("disk on fire"), wire.CodeInternal},
	}
	for _, codec := range []wire.Codec{wire.V2Codec, wire.BridgeCodec} {
		for _, tc := range cases {
			env := ErrorEnvelopeCodec(codec, 42, tc.err)
			if env.Type != wire.TypeError || env.ID != 42 {
				t.Fatalf("envelope = %+v", env)
			}
			var resp wire.ErrorResponse
			if err := wire.DecodePayload(env, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Code != tc.code {
				t.Fatalf("err %v mapped to code %q, want %q", tc.err, resp.Code, tc.code)
			}
		}
	}
}

func TestSlowLog(t *testing.T) {
	var logged string
	logf := func(format string, args ...any) { logged = format }
	slow := Chain(func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
		time.Sleep(20 * time.Millisecond)
		return wire.V2Codec.Encode(wire.TypePong, env.ID, nil)
	}, SlowLog(logf, time.Millisecond))
	if _, err := slow(context.Background(), wire.Envelope{Type: wire.TypePing}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logged, "slow request") {
		t.Fatalf("slow request not logged: %q", logged)
	}

	logged = ""
	fast := Chain(okHandler(wire.TypePong), SlowLog(logf, time.Second))
	if _, err := fast(context.Background(), wire.Envelope{Type: wire.TypePing}); err != nil {
		t.Fatal(err)
	}
	if logged != "" {
		t.Fatalf("fast request logged as slow: %q", logged)
	}
}
