package repserver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/trust"
	"honestplayer/internal/wire"
)

// TestAssessBatchMatchesSequential is the batch path's differential
// guarantee under concurrent writes: with the store state frozen, an
// assess.batch response must DeepEqual the N sequential single-assess
// responses, item for item, including per-item errors. Writers run between
// comparisons behind a world lock —
// each write holds it shared, each comparison holds it exclusively — so the
// comparison sees one consistent state while the workload still interleaves
// writes with batches exactly as a live server would.
func TestAssessBatchMatchesSequential(t *testing.T) {
	for _, workers := range []int{0, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t), BatchWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = srv.Close() })

			servers := make([]feedback.EntityID, 0, 12)
			for i := 0; i < 10; i++ {
				servers = append(servers, feedback.EntityID(fmt.Sprintf("srv-%02d", i)))
			}
			servers = append(servers, "ghost-a", "ghost-b")

			// world freezes the store for comparisons: writers hold it shared
			// per write, the comparator exclusively per round.
			var world sync.RWMutex
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					client := feedback.EntityID(fmt.Sprintf("writer-%d", w))
					for k := 0; ; k++ {
						select {
						case <-stop:
							return
						default:
						}
						world.RLock()
						f := rec(servers[k%10], client, k%7 != 0, int64(10000*(w+1)+k))
						if _, err := srv.Seed([]feedback.Feedback{f}); err != nil {
							t.Errorf("add: %v", err)
						}
						world.RUnlock()
					}
				}(w)
			}

			ctx := context.Background()
			req := wire.AssessBatchRequest{Servers: servers, Threshold: 0.7}
			for round := 0; round < 20; round++ {
				world.Lock()
				got, err := srv.AssessBatch(ctx, req)
				if err != nil {
					world.Unlock()
					t.Fatalf("round %d: batch: %v", round, err)
				}
				if len(got.Items) != len(servers) {
					world.Unlock()
					t.Fatalf("round %d: %d items for %d servers", round, len(got.Items), len(servers))
				}
				for i, item := range got.Items {
					if item.Server != servers[i] {
						world.Unlock()
						t.Fatalf("round %d: item %d answers %q, want %q", round, i, item.Server, servers[i])
					}
					single, serr := srv.Assess(ctx, wire.AssessRequest{Server: servers[i], Threshold: 0.7})
					if serr != nil {
						var proto *wire.ErrorResponse
						if !errors.As(serr, &proto) {
							world.Unlock()
							t.Fatalf("round %d: single assess %q: unexpected error type %v", round, servers[i], serr)
						}
						if !reflect.DeepEqual(item.Error, proto) {
							world.Unlock()
							t.Fatalf("round %d: item %q error = %+v, single path = %+v", round, servers[i], item.Error, proto)
						}
						continue
					}
					if item.Error != nil {
						world.Unlock()
						t.Fatalf("round %d: item %q failed (%+v) but single path served %+v", round, servers[i], item.Error, single)
					}
					if !reflect.DeepEqual(item.AssessResponse, single) {
						world.Unlock()
						t.Fatalf("round %d: item %q mismatch:\nbatch:  %+v\nsingle: %+v", round, servers[i], item.AssessResponse, single)
					}
				}
				world.Unlock()
			}
			close(stop)
			wg.Wait()

			if got := srv.Metrics().Value("batch_items"); got != uint64(20*len(servers)) {
				t.Fatalf("batch_items = %v, want %d", got, 20*len(servers))
			}
		})
	}
}

// TestAssessBatchNeverStale hammers the batch read path with concurrent
// assess.batch reads and feedback writes, and proves no
// batch item ever reflects a history older than what was fully written when
// the batch started. The assessor is trust-only (Average), so a response's
// trust value t over a server seeded with A positives and fed only negatives
// pins the history length the verdict was computed from at n = A/t; that n
// must fall between the writes completed before the batch and the writes
// started after it. A stale verdict lands below the lower bound. Run
// under -race this also checks the locking of the whole batch read path.
func TestAssessBatchNeverStale(t *testing.T) {
	tp, err := core.NewTwoPhase(nil, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("127.0.0.1:0", Config{Assessor: tp})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	const seedPositives = 64
	servers := []feedback.EntityID{"st-0", "st-1", "st-2", "st-3"}
	for _, s := range servers {
		for i := 0; i < seedPositives; i++ {
			if _, err := srv.Seed([]feedback.Feedback{rec(s, "seed", true, int64(i)+1)}); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Per-server write progress: started is bumped before the store accepts
	// the record, done after. Negative-only writes keep trust = A/n exact.
	started := make([]atomic.Int64, len(servers))
	done := make([]atomic.Int64, len(servers))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := feedback.EntityID(fmt.Sprintf("neg-%d", w))
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				si := k % len(servers)
				started[si].Add(1)
				if _, err := srv.Seed([]feedback.Feedback{rec(servers[si], client, false, int64(100000*(w+1)+k))}); err != nil {
					t.Errorf("add: %v", err)
				}
				done[si].Add(1)
			}
		}(w)
	}

	ctx := context.Background()
	req := wire.AssessBatchRequest{Servers: servers, Threshold: 0.01}
	for round := 0; round < 200; round++ {
		doneBefore := make([]int64, len(servers))
		for i := range servers {
			doneBefore[i] = done[i].Load()
		}
		resp, err := srv.AssessBatch(ctx, req)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, item := range resp.Items {
			startedAfter := started[i].Load()
			if item.Error != nil {
				t.Fatalf("round %d: item %q failed: %+v", round, servers[i], item.Error)
			}
			tr := item.Assessment.Trust
			if tr <= 0 || tr > 1 {
				t.Fatalf("round %d: item %q trust = %v", round, servers[i], tr)
			}
			n := int64(math.Round(seedPositives / tr))
			lo := seedPositives + doneBefore[i]
			hi := seedPositives + startedAfter
			if n < lo || n > hi {
				t.Fatalf("round %d: item %q served a verdict over %d records, want within [%d, %d] — stale cache entry",
					round, servers[i], n, lo, hi)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestAssessBatchFlags: an answer's one flag is Accept, on every serving
// path, batch and single, whatever the deprecated engine settings say. With
// Incremental or AssessCacheSize set, a node answers each item — first,
// repeated, and after a write to one of the servers — as TwoPhase.Accept
// over its snapshot.
func TestAssessBatchFlags(t *testing.T) {
	for name, cfg := range map[string]Config{
		"incremental": {Incremental: true},
		"cache":       {AssessCacheSize: 64},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Assessor = testAssessor(t)
			srv, err := New("127.0.0.1:0", cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			t.Cleanup(func() { _ = srv.Close() })
			ids := []feedback.EntityID{"a", "b"}
			for _, id := range ids {
				if _, err := srv.Seed(honestHistory(id, 60)); err != nil {
					t.Fatal(err)
				}
			}
			c := dial(t, srv)
			for round := 0; round < 3; round++ {
				if round == 2 {
					if _, err := srv.Seed([]feedback.Feedback{rec("a", "z", false, 1000)}); err != nil {
						t.Fatal(err)
					}
				}
				items, err := c.AssessBatch(ids, referenceThreshold)
				if err != nil {
					t.Fatal(err)
				}
				for i, item := range items {
					if item.Error != nil {
						t.Fatalf("round %d, %q: %+v", round, ids[i], item.Error)
					}
					wantReference(t, srv, srv.Store(), ids[i], item.AssessResponse)
					single, err := c.Assess(ids[i], referenceThreshold)
					if err != nil {
						t.Fatal(err)
					}
					wantReference(t, srv, srv.Store(), ids[i], single)
				}
			}
		})
	}
}

// TestAssessBatchValidation covers the request-level rejections and the
// per-item bad-request slot for an empty server ID.
func TestAssessBatchValidation(t *testing.T) {
	srv := startServer(t)
	ctx := context.Background()

	if _, err := srv.AssessBatch(ctx, wire.AssessBatchRequest{Threshold: 0.5}); err == nil {
		t.Fatal("empty batch must fail")
	}
	big := make([]feedback.EntityID, wire.MaxAssessBatch+1)
	for i := range big {
		big[i] = feedback.EntityID(fmt.Sprintf("s%d", i))
	}
	_, err := srv.AssessBatch(ctx, wire.AssessBatchRequest{Servers: big, Threshold: 0.5})
	var proto *wire.ErrorResponse
	if !errors.As(err, &proto) || proto.Code != wire.CodeBadRequest {
		t.Fatalf("oversized batch error = %v", err)
	}

	if _, err := srv.Seed([]feedback.Feedback{rec("known", "c", true, 1)}); err != nil {
		t.Fatal(err)
	}
	resp, err := srv.AssessBatch(ctx, wire.AssessBatchRequest{
		Servers: []feedback.EntityID{"known", "", "ghost"}, Threshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Items[0].Error != nil {
		t.Fatalf("known server failed: %+v", resp.Items[0].Error)
	}
	if e := resp.Items[1].Error; e == nil || e.Code != wire.CodeBadRequest {
		t.Fatalf("empty server item error = %+v", e)
	}
	if e := resp.Items[2].Error; e == nil || e.Code != wire.CodeUnknownServer ||
		!strings.Contains(e.Message, `"ghost"`) {
		t.Fatalf("unknown server item error = %+v", e)
	}
}

// TestAssessBatchOverWire drives the registered handler through a raw TCP
// connection: the response envelope must echo the request id as
// assess.batch.resp with items aligned to the request order.
func TestAssessBatchOverWire(t *testing.T) {
	srv := startServer(t)
	for i := 0; i < 30; i++ {
		if _, err := srv.Seed([]feedback.Feedback{rec("wired", "c", true, int64(i)+1)}); err != nil {
			t.Fatal(err)
		}
	}
	conn, r := rawConn(t, srv, wire.VersionV2)
	codec := wire.CodecFor(wire.VersionV2) // the names cross as the connection's refs
	send(t, conn, codec, wire.TypeAssessB, 42, wire.AssessBatchRequest{
		Servers: []feedback.EntityID{"wired", "ghost"}, Threshold: 0.5,
	})
	got, err := wire.ReadV2(r)
	if err == nil {
		err = codec.Commit(&got)
	}
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != wire.TypeAssessBR || got.ID != 42 {
		t.Fatalf("envelope = type %s id %d", got.Type, got.ID)
	}
	var resp wire.AssessBatchResponse
	if err := codec.DecodePayload(got, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Items) != 2 || resp.Items[0].Server != "wired" || resp.Items[1].Server != "ghost" {
		t.Fatalf("items = %+v", resp.Items)
	}
	if resp.Items[0].Error != nil || resp.Items[1].Error == nil {
		t.Fatalf("per-item outcomes = %+v", resp.Items)
	}
}

// TestHostileNameBreaksTheConnection: a request whose name ref reads a
// slot nothing bound is answered bad_request under its id, and it has broken
// the connection's tables: the node closes the connection after the answer,
// whose own commit the broken tables refuse.
func TestHostileNameBreaksTheConnection(t *testing.T) {
	srv := startServer(t)
	conn, r := rawConn(t, srv, wire.VersionV2)
	unbound := wire.Envelope{Type: wire.TypeAssess, ID: 7, Binary: true,
		Payload: []byte{4, 0x3f, 0xec, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xcd}} // slot 3, threshold 0.9
	if err := wire.WriteV2(conn, unbound); err != nil {
		t.Fatal(err)
	}
	var e wire.ErrorResponse
	if got, err := wire.ReadV2(r); err != nil || got.ID != 7 || wire.DecodePayload(got, &e) != nil || e.Code != wire.CodeBadRequest {
		t.Fatalf("answer %+v, %v: %+v, want bad_request under id 7", got, err, e)
	}
	if got, err := wire.ReadV2(r); err == nil {
		t.Fatalf("the connection stayed open: %+v", got)
	}
}
