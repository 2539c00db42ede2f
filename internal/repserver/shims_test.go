package repserver

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"honestplayer/internal/feedback"
	"honestplayer/internal/store"
	"honestplayer/internal/wire"
)

// The deprecated engine settings, Config.Incremental and
// Config.AssessCacheSize, are accepted and ignored: a node keeps no
// per-server assessment state, so they change no answer and no /metricz
// key.

// startIncrementalPair starts two servers over the same assessor geometry:
// one with the deprecated Incremental setting, one without. Differential
// assertions compare their answers request for request.
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

// TestAssessIncrementalMatchesBatch drives a write-then-assess workload and
// checks the server with the deprecated Incremental setting answers every
// request identically to the one without, and that neither serves an
// incremental.* or cache.* key.
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
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("n=%d: error mismatch: incremental=%v batch=%v", i+1, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: response mismatch:\nincremental: %+v\nbatch:       %+v", i+1, got, want)
		}
	}
	for _, srv := range []*Server{incrSrv, batchSrv} {
		raw, err := json.Marshal(srv.Metrics())
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"incremental", "cache"} {
			if v, ok := doc[key]; ok {
				t.Fatalf("/metricz serves %s: %v", key, v)
			}
		}
	}
}

// TestAssessIncrementalOverWire: with the deprecated setting, submissions
// over the wire are assessed over the wire.
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
	if resp.Assessment.Suspicious || !resp.Accept {
		t.Fatalf("all-good history rejected: %+v", resp.Assessment)
	}
}

// TestAssessIncrementalUnknownServer keeps the unknown-server error intact
// with the deprecated setting.
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
}

// TestEnginesAgreeOnCounts: whatever the deprecated engine settings say, a
// node says what it judged — Records and Good, the store's count of the
// server's records — on honest, suspicious and short histories alike, and
// through the wire its assessments DeepEqual.
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
		rng.Seed(1) // every node sees the same histories
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
		for range 2 {
			if items, err = c.AssessBatch(servers, 0.5); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		for i, item := range items {
			a := item.Assessment
			if item.Error != nil {
				t.Fatalf("%s, %s: %+v", name, servers[i], item.Error)
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
		}
		answers[name] = items
	}
	for _, name := range []string{"cached", "incremental"} {
		if !reflect.DeepEqual(answers[name], answers["recompute"]) {
			t.Errorf("%s answers\n%+v\nrecompute answers\n%+v", name, answers[name], answers["recompute"])
		}
	}
}
