package service

import (
	"sync"
	"sync/atomic"
	"time"

	"honestplayer/internal/metrics"
	"honestplayer/internal/wire"
)

const ms = uint64(time.Millisecond)

// latencyBounds are the latency histogram's upper bounds in nanoseconds,
// exponential from 50µs to 10s. Fixed buckets keep Observe allocation-free
// and lock-free on the hot path; quantiles are interpolated within a bucket,
// which is exact enough for serving dashboards (a Prometheus-style trade).
var latencyBounds = []uint64{
	ms / 20, ms / 10, ms / 4, ms / 2, ms, 5 * ms / 2, 5 * ms, 10 * ms, 25 * ms, 50 * ms,
	100 * ms, 250 * ms, 500 * ms, 1000 * ms, 2500 * ms, 5000 * ms, 10000 * ms,
}

// typeMetrics is one message type's error count and latency histogram,
// whose count is the type's requests and whose sum their total nanoseconds.
type typeMetrics struct {
	errors  atomic.Uint64
	latency *metrics.Histogram
}

// Metrics aggregates per-type request counters and latency histograms. The
// zero value is not usable; create with NewMetrics. Safe for concurrent
// use.
type Metrics struct {
	mu      sync.RWMutex
	perType map[wire.MsgType]*typeMetrics
}

// NewMetrics returns an empty metrics aggregate.
func NewMetrics() *Metrics {
	return &Metrics{perType: make(map[wire.MsgType]*typeMetrics)}
}

// Observe records one served request of type t with latency d.
func (m *Metrics) Observe(t wire.MsgType, d time.Duration, isErr bool) {
	m.mu.RLock()
	tm, ok := m.perType[t]
	m.mu.RUnlock()
	if !ok {
		m.mu.Lock()
		tm, ok = m.perType[t]
		if !ok {
			tm = &typeMetrics{latency: metrics.HistogramOver(latencyBounds)}
			m.perType[t] = tm
		}
		m.mu.Unlock()
	}
	if isErr {
		tm.errors.Add(1)
	}
	tm.latency.Observe(uint64(max(d, 0)))
}

// TypeSnapshot is one message type's counters at a point in time. Latency
// quantiles are estimated from the fixed-bucket histogram (linear
// interpolation within the bucket; the overflow bucket reports the largest
// finite bound).
type TypeSnapshot struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
	// MeanMs is the exact mean latency in milliseconds.
	MeanMs float64 `json:"mean_ms"`
	// P50Ms, P90Ms, P99Ms are estimated latency quantiles in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
}

// Snapshot maps message types to their counters.
type Snapshot map[string]TypeSnapshot

// Snapshot returns a point-in-time copy of all counters. Counters are read
// without a global pause, so a snapshot taken under load is approximate
// across types but each counter is individually consistent.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(Snapshot, len(m.perType))
	for t, tm := range m.perType {
		snap := TypeSnapshot{Requests: tm.latency.Count(), Errors: tm.errors.Load()}
		if snap.Requests > 0 {
			snap.MeanMs = float64(tm.latency.Sum()) / float64(snap.Requests) / 1e6
			snap.P50Ms = quantileMs(tm.latency, 0.50)
			snap.P90Ms = quantileMs(tm.latency, 0.90)
			snap.P99Ms = quantileMs(tm.latency, 0.99)
		}
		out[string(t)] = snap
	}
	return out
}

// quantileMs interpolates the q-quantile of h, in nanoseconds, within its
// bucket and returns it in milliseconds.
func quantileMs(h *metrics.Histogram, q float64) float64 {
	lo, hi, frac := h.Quantile(q)
	return (float64(lo) + frac*float64(hi-lo)) / 1e6
}
