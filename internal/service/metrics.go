package service

import (
	"sync"
	"sync/atomic"
	"time"

	"honestplayer/internal/wire"
)

// latencyBuckets are the fixed upper bounds of the latency histogram,
// exponential from 50µs to 10s. One more implicit +Inf bucket catches the
// overflow. Fixed buckets keep Observe allocation-free and lock-free on the
// hot path; quantiles are interpolated within a bucket, which is exact
// enough for serving dashboards (a Prometheus-style trade).
var latencyBuckets = [...]time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
}

const numBuckets = len(latencyBuckets) + 1 // +Inf overflow

// typeMetrics holds one message type's counters. All fields are atomics so
// Observe never takes a lock after the typeMetrics exists.
type typeMetrics struct {
	requests atomic.Uint64
	errors   atomic.Uint64
	totalNs  atomic.Uint64
	buckets  [numBuckets]atomic.Uint64
}

func (tm *typeMetrics) observe(d time.Duration, isErr bool) {
	if d < 0 {
		d = 0
	}
	tm.requests.Add(1)
	if isErr {
		tm.errors.Add(1)
	}
	tm.totalNs.Add(uint64(d))
	i := 0
	for i < len(latencyBuckets) && d > latencyBuckets[i] {
		i++
	}
	tm.buckets[i].Add(1)
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
			tm = &typeMetrics{}
			m.perType[t] = tm
		}
		m.mu.Unlock()
	}
	tm.observe(d, isErr)
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
	types := make(map[wire.MsgType]*typeMetrics, len(m.perType))
	for t, tm := range m.perType {
		types[t] = tm
	}
	m.mu.RUnlock()

	out := make(Snapshot, len(types))
	for t, tm := range types {
		var counts [numBuckets]uint64
		var total uint64
		for i := range counts {
			counts[i] = tm.buckets[i].Load()
			total += counts[i]
		}
		snap := TypeSnapshot{
			Requests: tm.requests.Load(),
			Errors:   tm.errors.Load(),
		}
		if total > 0 {
			snap.MeanMs = float64(tm.totalNs.Load()) / float64(total) / 1e6
			snap.P50Ms = quantile(counts, total, 0.50)
			snap.P90Ms = quantile(counts, total, 0.90)
			snap.P99Ms = quantile(counts, total, 0.99)
		}
		out[string(t)] = snap
	}
	return out
}

// quantile estimates the q-quantile (0 < q < 1) in milliseconds from the
// bucket counts.
func quantile(counts [numBuckets]uint64, total uint64, q float64) float64 {
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		// The rank falls in bucket i: interpolate between its bounds.
		hi := latencyBuckets[len(latencyBuckets)-1]
		if i < len(latencyBuckets) {
			hi = latencyBuckets[i]
		}
		var lo time.Duration
		if i > 0 {
			lo = latencyBuckets[i-1]
		}
		frac := (rank - prev) / float64(c)
		if frac < 0 {
			frac = 0
		} else if frac > 1 {
			frac = 1
		}
		return (float64(lo) + frac*float64(hi-lo)) / 1e6
	}
	return float64(latencyBuckets[len(latencyBuckets)-1]) / 1e6
}
