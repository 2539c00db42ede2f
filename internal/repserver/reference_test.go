package repserver

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/repclient"
	"honestplayer/internal/service"
	"honestplayer/internal/store"
	"honestplayer/internal/wire"
)

// referenceThreshold is the accept threshold of every reference check.
const referenceThreshold = 0.7

// referenceHistories are the records every case seeds: an honest server, one
// whose windows alternate all good and all bad (phase 1 flags it), and one
// too short to leave short-history mode.
func referenceHistories() map[feedback.EntityID][]feedback.Feedback {
	out := map[feedback.EntityID][]feedback.Feedback{"honest": honestHistory("honest", 200)}
	for i := 0; i < 200; i++ {
		out["suspicious"] = append(out["suspicious"], rec("suspicious", feedback.EntityID(fmt.Sprint("c", i%20)), i/10%2 == 0, int64(i)))
	}
	for i := 0; i < 6; i++ {
		out["short"] = append(out["short"], rec("short", "c", true, int64(i)))
	}
	return out
}

// seedReference writes referenceHistories through srv's write path.
func seedReference(t *testing.T, srv *Server) []feedback.EntityID {
	t.Helper()
	var ids []feedback.EntityID
	for id, recs := range referenceHistories() {
		if _, err := srv.Seed(recs); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	return ids
}

// wantReference fails unless got is TwoPhase.Accept over st's snapshot of
// id, computed by srv's assessor: the node's answer is the reference
// assessor's by construction, whichever way it left the node.
func wantReference(t *testing.T, srv *Server, st *store.Store, id feedback.EntityID, got wire.AssessResponse) {
	t.Helper()
	if err := isReference(srv, st, id, got); err != nil {
		t.Fatal(err)
	}
}

// isReference is wantReference for any goroutine: it returns the mismatch.
func isReference(srv *Server, st *store.Store, id feedback.EntityID, got wire.AssessResponse) error {
	snap, _ := st.Snapshot(id)
	if snap == nil || snap.Len() == 0 {
		return fmt.Errorf("%q: no history to judge", id)
	}
	accept, a, err := srv.cfg.Assessor.Accept(snap, referenceThreshold)
	if err != nil {
		return err
	}
	if want := (wire.AssessResponse{Assessment: a, Accept: accept}); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%q: the node answered\n%+v\nthe reference assessor\n%+v", id, got, want)
	}
	return nil
}

// assessBatchItems assesses ids in one assess.batch frame through srv's door.
func assessBatchItems(t *testing.T, srv *Server, ids []feedback.EntityID) []wire.AssessResponse {
	t.Helper()
	items, err := dial(t, srv).AssessBatch(ids, referenceThreshold)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]wire.AssessResponse, len(items))
	for i, item := range items {
		if item.Error != nil {
			t.Fatalf("%q: %+v", ids[i], item.Error)
		}
		out[i] = item.AssessResponse
	}
	return out
}

// durableServer starts a server over a ledger-backed store in dir.
func durableServer(t *testing.T, dir string, opts ledger.Options) (*Server, *ledger.PersistentStore) {
	t.Helper()
	ps, err := ledger.OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t), Store: ps.Store(), Recorder: ps})
	if err != nil {
		t.Fatal(err)
	}
	ps.RegisterMetrics(srv.Metrics())
	srv.Start()
	t.Cleanup(func() {
		_ = srv.Close()
		_ = ps.Close()
	})
	return srv, ps
}

// TestVerdictIsReference: every way a verdict leaves a node — a single
// assess, an assess.batch item, a cluster owner's fwd.assess.batch answer
// relayed by a door, a server faulted back in under a memory budget, one
// seeded by a snapshot boot, one whose history took an out-of-order insert,
// and a stream of verdicts pipelined on one connection, each after a report,
// one report out of order — answers exactly TwoPhase.Accept over
// store.Snapshot.
func TestVerdictIsReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"assess", func(t *testing.T) {
			srv := startServer(t)
			c := dial(t, srv)
			for _, id := range seedReference(t, srv) {
				got, err := c.Assess(id, referenceThreshold)
				if err != nil {
					t.Fatal(err)
				}
				wantReference(t, srv, srv.Store(), id, got)
			}
		}},
		{"assess.batch", func(t *testing.T) {
			srv := startServer(t)
			ids := seedReference(t, srv)
			for i, got := range assessBatchItems(t, srv, ids) {
				wantReference(t, srv, srv.Store(), ids[i], got)
			}
		}},
		{"fwd.assess.batch", func(t *testing.T) {
			servers := startCluster(t, 3, 2, func() Config { return Config{Assessor: testAssessor(t)} })
			for _, recs := range referenceHistories() {
				seedThrough(t, servers[0], recs)
			}
			for id := range referenceHistories() {
				owner, _, outside := roles(t, servers, id)
				got := assessBatchItems(t, servers[outside], []feedback.EntityID{id})[0]
				wantReference(t, servers[owner], servers[owner].Store(), id, got)
				per, _ := servers[owner].Metrics().Value("per_type").(service.Snapshot)
				if per[string(wire.TypeFwdAssessB)].Requests == 0 {
					t.Fatalf("%q: the owner served no fwd.assess.batch frame", id)
				}
			}
		}},
		{"fault-in", func(t *testing.T) {
			srv, ps := durableServer(t, filepath.Join(t.TempDir(), "led"), ledger.Options{MemBudget: 1 << 40})
			ids := seedReference(t, srv)
			if _, err := ps.Snapshot(); err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				if !ps.Store().EvictServer(id) {
					t.Fatalf("%q not evicted", id)
				}
			}
			for i, got := range assessBatchItems(t, srv, ids) {
				wantReference(t, srv, ps.Store(), ids[i], got)
			}
			if got := srv.Metrics().Value("lifecycle.reinstates"); got != uint64(len(ids)) {
				t.Fatalf("lifecycle.reinstates = %v, want %d", got, len(ids))
			}
		}},
		{"snapshot-boot", func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "led")
			ps, err := ledger.OpenStoreOptions(context.Background(), dir, ledger.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, recs := range referenceHistories() {
				for _, r := range ps.AddBatch(recs, 0) {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
				}
			}
			if _, err := ps.Snapshot(); err != nil {
				t.Fatal(err)
			}
			if err := ps.Close(); err != nil {
				t.Fatal(err)
			}
			srv, booted := durableServer(t, dir, ledger.Options{})
			if mode := srv.Metrics().Value("ledger.boot_mode"); mode != "snapshot" {
				t.Fatalf("boot mode %v", mode)
			}
			var ids []feedback.EntityID
			for id := range referenceHistories() {
				ids = append(ids, id)
			}
			for i, got := range assessBatchItems(t, srv, ids) {
				wantReference(t, srv, booted.Store(), ids[i], got)
			}
		}},
		{"out-of-order", func(t *testing.T) {
			srv := startServer(t)
			ids := seedReference(t, srv)
			c := dial(t, srv)
			for _, id := range ids {
				// At the time of the first record: it lands at the front of
				// the history, not at its end.
				if stored, err := c.Submit(rec(id, "late", false, 0)); err != nil || !stored {
					t.Fatalf("%q: late record stored=%v err=%v", id, stored, err)
				}
				if h, _ := srv.Store().Snapshot(id); h.ClientAt(1) != "late" && h.ClientAt(0) != "late" {
					t.Fatalf("%q: the late record is not at the front of the history", id)
				}
				got, err := c.Assess(id, referenceThreshold)
				if err != nil {
					t.Fatal(err)
				}
				wantReference(t, srv, srv.Store(), id, got)
			}
		}},
		{"pipelined", func(t *testing.T) {
			// The paper's loop on one connection: eight clients' loops
			// pipelined on it over overlapping servers, each round every
			// loop reporting on a server and then asking for its verdict,
			// so the connection mirrors every history the verdicts judge,
			// the servers' and clients' names race into its name tables in
			// both directions, and callers decode their frames as later
			// frames commit. The window holds two frames: the opening asks
			// and every fourth ask after give up as they wait for it,
			// encoded and never written, or written and their answers
			// dropped. One report lands mid-history: the next verdict on
			// that server carries its bits from the first record again.
			srv := startServer(t)
			c, err := repclient.Dial(srv.Addr(), repclient.WithTimeout(3*time.Second), repclient.WithWindow(2))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			ids := seedReference(t, srv)
			const loops = 8
			gaveUp := 0
			var mu sync.Mutex
			phase := func(do func(g int)) { // every loop at once
				var wg sync.WaitGroup
				for g := range loops {
					wg.Add(1)
					go func() {
						defer wg.Done()
						do(g)
					}()
				}
				wg.Wait()
			}
			ask := func(round, g int, giveUp bool) {
				id := ids[(g+round)%len(ids)]
				ctx := context.Background()
				if giveUp {
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, 20*time.Microsecond)
					defer cancel()
				}
				got, err := c.AssessCtx(ctx, id, referenceThreshold)
				if ctx.Err() != nil {
					mu.Lock()
					gaveUp++
					mu.Unlock()
					return
				}
				if err == nil {
					err = isReference(srv, srv.Store(), id, got)
				}
				if err != nil {
					t.Errorf("round %d, loop %d: %v", round, g, err)
				}
			}
			// The first frames to name the servers on the connection all
			// give up: their names must ride again in the frames after.
			phase(func(g int) { ask(0, g, true) })
			for round := range 24 {
				phase(func(g int) {
					id := ids[(g+round)%len(ids)]
					at := int64(1000 + round*loops + g)
					if round == 12 && id == "honest" {
						at = int64(g) // mid-history
					}
					client := feedback.EntityID(fmt.Sprint("loop-", g, "-", round%3))
					if _, err := c.Submit(rec(id, client, (g+round)%4 != 0, at)); err != nil {
						t.Error(err)
					}
				})
				// The reports are in: the histories hold still for the verdicts.
				phase(func(g int) { ask(round, g, g%4 == 3) })
			}
			if gaveUp == 0 {
				t.Error("no ask gave up")
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
