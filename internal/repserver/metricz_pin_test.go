package repserver

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/wire"
)

// TestMetriczDistributionsPinned feeds a fixed seeded sequence of request
// latencies and commit-group sizes through the node's two distributions and
// pins what /metricz renders of them: every per_type value, quantiles
// interpolated in ms, and the ledger's group_commit block with its
// power-of-two size bounds. Integer draws only, so every platform renders
// the same bytes.
func TestMetriczDistributionsPinned(t *testing.T) {
	ps, err := ledger.OpenStoreOptions(context.Background(), filepath.Join(t.TempDir(), "ledger"), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ps.Close() }()
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t), Store: ps.Store(), Recorder: ps})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	ps.RegisterMetrics(srv.Metrics())

	rng := rand.New(rand.NewSource(65))
	types := []wire.MsgType{wire.TypeAssess, wire.TypeSubmitB, wire.TypeHistory}
	srv.perType.Observe(wire.TypePing, -time.Millisecond, false) // clamped to 0
	for i := 0; i < 600; i++ {
		// Up to 2^36 ns (~69 s): every bucket and the overflow see traffic.
		d := time.Duration(rng.Int63n(int64(1) << rng.Intn(37)))
		srv.perType.Observe(types[i%len(types)], d, rng.Intn(9) == 0)
	}
	at := int64(1)
	for g := 0; g < 40; g++ {
		// Sequential batches commit one group each: sizes 1..4096.
		recs := make([]feedback.Feedback, 1+rng.Intn(1<<rng.Intn(13)))
		for i := range recs {
			recs[i] = rec(feedback.EntityID(fmt.Sprintf("s%d", g)), "c", i%3 != 0, at)
			at++
		}
		for _, r := range ps.AddBatch(recs, 1) {
			if r.Err != nil || !r.Stored {
				t.Fatalf("group %d: %+v", g, r)
			}
		}
	}

	raw, err := json.Marshal(srv.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerType json.RawMessage `json:"per_type"`
		Ledger  struct {
			GroupCommit json.RawMessage `json:"group_commit"`
		} `json:"ledger"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, got, want string }{
		{"per_type", string(doc.PerType), `{"assess":{"requests":200,"errors":16,"mean_ms":2807.646055295,"p50_ms":0.2285714285714286,"p90_ms":6666.666666666666,"p99_ms":10000},` +
			`"history":{"requests":200,"errors":27,"mean_ms":2167.8361733,"p50_ms":0.1,"p90_ms":5000,"p99_ms":10000},` +
			`"ping":{"requests":1,"errors":0,"mean_ms":0,"p50_ms":0.025,"p90_ms":0.045,"p99_ms":0.0495},` +
			`"submit.batch":{"requests":200,"errors":28,"mean_ms":2279.970135745,"p50_ms":0.1,"p90_ms":4500,"p99_ms":10000}}`},
		{"ledger.group_commit", string(doc.Ledger.GroupCommit),
			`{"coalesced":35,"flushes":40,"records":10029,"size_p50":32,"size_p99":1024}`},
	} {
		if tc.got != tc.want {
			t.Errorf("%s renders\n %s\nwant\n %s", tc.name, tc.got, tc.want)
		}
	}
}
