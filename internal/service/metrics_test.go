package service

import (
	"context"
	"sync"
	"testing"
	"time"

	"honestplayer/internal/wire"
)

func TestMetricsCounters(t *testing.T) {
	m := NewMetrics()
	m.Observe(wire.TypeAssess, 2*time.Millisecond, false)
	m.Observe(wire.TypeAssess, 4*time.Millisecond, true)
	m.Observe(wire.TypePing, 10*time.Microsecond, false)

	snap := m.Snapshot()
	a, ok := snap[string(wire.TypeAssess)]
	if !ok {
		t.Fatalf("no assess entry: %v", snap)
	}
	if a.Requests != 2 || a.Errors != 1 {
		t.Fatalf("assess = %+v", a)
	}
	if a.MeanMs < 2 || a.MeanMs > 5 {
		t.Fatalf("assess mean = %v ms", a.MeanMs)
	}
	p, ok := snap[string(wire.TypePing)]
	if !ok || p.Requests != 1 || p.Errors != 0 {
		t.Fatalf("ping = %+v ok=%v", p, ok)
	}
}

func TestMetricsQuantiles(t *testing.T) {
	m := NewMetrics()
	// 90 fast requests and 10 slow ones: p50 must sit in the fast band,
	// p99 in the slow band.
	for i := 0; i < 90; i++ {
		m.Observe(wire.TypeHistory, 200*time.Microsecond, false)
	}
	for i := 0; i < 10; i++ {
		m.Observe(wire.TypeHistory, 80*time.Millisecond, false)
	}
	snap := m.Snapshot()[string(wire.TypeHistory)]
	if snap.P50Ms <= 0.05 || snap.P50Ms > 0.5 {
		t.Fatalf("p50 = %v ms, want within the fast bucket", snap.P50Ms)
	}
	if snap.P99Ms < 25 || snap.P99Ms > 100 {
		t.Fatalf("p99 = %v ms, want within the slow bucket", snap.P99Ms)
	}
	if snap.P50Ms > snap.P90Ms || snap.P90Ms > snap.P99Ms {
		t.Fatalf("quantiles not monotone: %+v", snap)
	}
}

func TestMetricsOverflowBucket(t *testing.T) {
	m := NewMetrics()
	m.Observe(wire.TypeAssess, time.Minute, false)
	snap := m.Snapshot()[string(wire.TypeAssess)]
	// The overflow bucket reports the largest finite bound (10s).
	if snap.P50Ms != 10000 {
		t.Fatalf("overflow p50 = %v ms", snap.P50Ms)
	}
}

func TestMetricsConcurrentObserve(t *testing.T) {
	m := NewMetrics()
	var wg sync.WaitGroup
	types := []wire.MsgType{wire.TypePing, wire.TypeSubmit, wire.TypeAssess}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Observe(types[(g+i)%len(types)], time.Duration(i)*time.Microsecond, i%7 == 0)
			}
		}(g)
	}
	wg.Wait()
	var total uint64
	for _, s := range m.Snapshot() {
		total += s.Requests
	}
	if total != 8*500 {
		t.Fatalf("total = %d, want %d", total, 8*500)
	}
}

func TestWithMetricsInterceptor(t *testing.T) {
	m := NewMetrics()
	h := Chain(func(ctx context.Context, env wire.Envelope) (wire.Envelope, error) {
		if env.ID == 1 {
			return wire.Envelope{}, Errorf(wire.CodeBadRequest, "nope")
		}
		return wire.V2Codec.Encode(wire.TypePong, env.ID, nil)
	}, WithMetrics(m))
	if _, err := h(context.Background(), wire.Envelope{Type: wire.TypePing, ID: 1}); err == nil {
		t.Fatal("expected error")
	}
	if _, err := h(context.Background(), wire.Envelope{Type: wire.TypePing, ID: 2}); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()[string(wire.TypePing)]
	if snap.Requests != 2 || snap.Errors != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestMetricsObserveAllocatesNothing(t *testing.T) {
	m := NewMetrics()
	m.Observe(wire.TypeAssess, time.Millisecond, false) // the type's first request makes its histogram
	if n := testing.AllocsPerRun(100, func() { m.Observe(wire.TypeAssess, time.Millisecond, true) }); n != 0 {
		t.Fatalf("Observe allocates %v times a request, want 0", n)
	}
}
