package repserver

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/store"
	"honestplayer/internal/wire"
)

// startIncrementalPair starts two servers over the same assessor geometry:
// one with the incremental engine, one without. Differential assertions
// compare their answers request for request.
func startIncrementalPair(t *testing.T) (incr, batch *Server) {
	t.Helper()
	mk := func(incremental bool) *Server {
		srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t), Incremental: incremental})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(func() {
			if err := srv.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		})
		return srv
	}
	return mk(true), mk(false)
}

// TestAssessIncrementalMatchesBatch drives a write-then-assess workload —
// the pattern that defeats the assessment cache — and checks the
// incremental server answers every request identically to the batch server,
// with the Incremental flag set and the counters moving.
func TestAssessIncrementalMatchesBatch(t *testing.T) {
	incrSrv, batchSrv := startIncrementalPair(t)
	ctx := context.Background()
	const server = "srv"
	for i := 0; i < 90; i++ {
		f := rec(server, feedback.EntityID(rune('a'+i%5)), i%10 != 9, int64(i)+1)
		for _, srv := range []*Server{incrSrv, batchSrv} {
			if _, err := srv.Seed([]feedback.Feedback{f}); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
		if i < 45 || i%3 != 0 {
			continue
		}
		req := wire.AssessRequest{Server: server, Threshold: 0.7}
		got, gotErr := incrSrv.Assess(ctx, req)
		want, wantErr := batchSrv.Assess(ctx, req)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("n=%d: error mismatch: incremental=%v batch=%v", i+1, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("n=%d: error text mismatch: %v vs %v", i+1, gotErr, wantErr)
			}
			continue
		}
		if !got.Incremental {
			t.Fatalf("n=%d: response not served incrementally", i+1)
		}
		got.Incremental = false
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: response mismatch:\nincremental: %+v\nbatch:       %+v", i+1, got, want)
		}
	}
	m := incrSrv.Metrics()
	if m.Value("incremental.enabled") != true || m.Value("incremental.servers_tracked") != 1 || m.Value("incremental.served") == uint64(0) {
		t.Fatalf("incremental enabled/servers_tracked/served = %v/%v/%v, want enabled with served requests and one tracked server",
			m.Value("incremental.enabled"), m.Value("incremental.servers_tracked"), m.Value("incremental.served"))
	}
	if got := m.Value("incremental.fallbacks"); got != uint64(0) {
		t.Fatalf("unexpected fallbacks: %v", got)
	}
	if m := batchSrv.Metrics(); m.Value("incremental.enabled") != false || m.Value("incremental.served") != uint64(0) ||
		m.Value("incremental.servers_tracked") != 0 {
		t.Fatalf("batch server incremental enabled/served/servers_tracked = %v/%v/%v, want all-off",
			m.Value("incremental.enabled"), m.Value("incremental.served"), m.Value("incremental.servers_tracked"))
	}
}

// TestAssessIncrementalOverWire checks the Incremental flag survives the
// wire round-trip and the engine feeds from client submissions.
func TestAssessIncrementalOverWire(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t), Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { _ = srv.Close() })
	c := dial(t, srv)
	for i := 0; i < 60; i++ {
		if _, err := c.Submit(rec("srv", feedback.EntityID(rune('a'+i%4)), true, int64(i)+1)); err != nil {
			t.Fatalf("submit: %v", err)
		}
	}
	resp, err := c.Assess("srv", 0.5)
	if err != nil {
		t.Fatalf("assess: %v", err)
	}
	if !resp.Incremental {
		t.Fatal("response should be marked incremental")
	}
	if resp.Assessment.Suspicious || !resp.Accept {
		t.Fatalf("all-good history rejected: %+v", resp.Assessment)
	}
}

// TestAssessIncrementalUnknownServer keeps the unknown-server error intact
// when the engine is on.
func TestAssessIncrementalUnknownServer(t *testing.T) {
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t), Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	_, aerr := srv.Assess(context.Background(), wire.AssessRequest{Server: "ghost"})
	if aerr == nil || !strings.Contains(aerr.Error(), "no records") {
		t.Fatalf("unknown server error = %v", aerr)
	}
	if got := srv.Metrics().Value("incremental.fallbacks"); got != uint64(0) {
		t.Fatalf("unknown server must not count as fallback: %v", got)
	}
}

// nonTrackerTrust is a trust function without an incremental tracker.
type nonTrackerTrust struct{}

func (nonTrackerTrust) Name() string                                  { return "non-tracker" }
func (nonTrackerTrust) Evaluate(h *feedback.History) (float64, error) { return 0.5, nil }

// TestNewIncrementalRequiresSupport rejects Incremental with an assessor
// whose components have no incremental form.
func TestNewIncrementalRequiresSupport(t *testing.T) {
	tp, err := core.NewTwoPhase(nil, nonTrackerTrust{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("127.0.0.1:0", Config{Assessor: tp, Incremental: true}); err == nil {
		t.Fatal("New must reject Incremental for a non-incremental assessor")
	}
	// The same assessor without the flag still works.
	srv, err := New("127.0.0.1:0", Config{Assessor: tp})
	if err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
}

// TestEnginesAgreeOnCounts: the recompute engine, the assessment cache and
// the incremental engine each say what they judged — Records and Good, the
// store's count of the server's records — on honest, suspicious and short
// histories alike, and through the wire their assessments DeepEqual.
func TestEnginesAgreeOnCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	histories := map[feedback.EntityID]func(i int) bool{
		"honest":     func(int) bool { return rng.Float64() < 0.93 },
		"suspicious": func(i int) bool { return i/10%2 == 0 }, // windows all good or all bad
		"short":      func(int) bool { return true },
	}
	lengths := map[feedback.EntityID]int{"honest": 200, "suspicious": 200, "short": 6}
	servers := []feedback.EntityID{"honest", "suspicious", "short"}
	answers := map[string][]wire.AssessBatchItem{}
	for name, cfg := range map[string]Config{
		"recompute":   {},
		"cached":      {AssessCacheSize: 64},
		"incremental": {Incremental: true},
	} {
		st := store.New()
		cfg.Assessor, cfg.Store = testAssessor(t), st
		srv, err := New("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(func() { _ = srv.Close() })
		rng.Seed(1) // every engine sees the same histories
		for _, server := range servers {
			recs := make([]feedback.Feedback, lengths[server])
			for i := range recs {
				recs[i] = rec(server, feedback.EntityID(fmt.Sprint("c", i%20)), histories[server](i), int64(i)+1)
			}
			if _, err := srv.Seed(recs); err != nil {
				t.Fatal(err)
			}
		}
		c := dial(t, srv)
		var items []wire.AssessBatchItem
		for range 2 { // the second answer is the cache's
			if items, err = c.AssessBatch(servers, 0.5); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for i, item := range items {
			a := item.Assessment
			if item.Error != nil {
				t.Fatalf("%s, %s: %+v", name, servers[i], item.Error)
			}
			if item.Cached != (name == "cached") || item.Incremental != (name == "incremental") {
				t.Errorf("%s, %s: cached %v, incremental %v", name, servers[i], item.Cached, item.Incremental)
			}
			h, err := st.History(servers[i])
			if err != nil {
				t.Fatal(err)
			}
			if a.Records != h.Len() || a.Good != h.GoodCount() || a.Records != lengths[servers[i]] {
				t.Errorf("%s, %s: judged %d good of %d, the store holds %d of %d", name, servers[i], a.Good, a.Records, h.GoodCount(), h.Len())
			}
			if a.Suspicious != (servers[i] != "honest") || a.ShortHistory != (servers[i] == "short") {
				t.Errorf("%s, %s: suspicious %v, short %v", name, servers[i], a.Suspicious, a.ShortHistory)
			}
			items[i].Cached, items[i].Incremental = false, false
		}
		answers[name] = items
	}
	for _, name := range []string{"cached", "incremental"} {
		if !reflect.DeepEqual(answers[name], answers["recompute"]) {
			t.Errorf("%s answers\n%+v\nrecompute answers\n%+v", name, answers[name], answers["recompute"])
		}
	}
}
