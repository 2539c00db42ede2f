package repserver

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/wire"
)

// TestEvictionChurn hammers a server whose store runs under a budget small
// enough that servers evict constantly: concurrent writers and concurrent
// assessors, both faulting evicted servers back in through the store's one
// single-flighted path, and a snapshot loop rotating the tail index
// underneath both. Meant for -race; afterwards every server's state
// must still assess identically to a from-scratch reference.
func TestEvictionChurn(t *testing.T) {
	const (
		servers   = 32
		perServer = 6
		writers   = 4
		assessors = 4
		churnOps  = 150
	)
	dir := filepath.Join(t.TempDir(), "led")
	ps, err := ledger.OpenStoreOptions(context.Background(), dir, ledger.Options{
		Shards:       4,
		SegmentBytes: 1 << 20,
		MemBudget:    12 << 10, // holds roughly half the population
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()

	srv, err := New("127.0.0.1:0", Config{
		Assessor: testAssessor(t),
		Store:    ps.Store(),
		Recorder: ps,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	id := func(i int) feedback.EntityID {
		return feedback.EntityID(fmt.Sprintf("churn%02d", i%servers))
	}
	// Seed every server and snapshot so rebuilds have sections to read.
	var clock atomic.Int64
	clock.Store(1)
	write := func(i int) error {
		at := clock.Add(1)
		f := rec(id(i), feedback.EntityID(fmt.Sprintf("c%d", at%9)), at%5 != 0, at)
		_, err := ps.Add(f)
		return err
	}
	for i := 0; i < servers*perServer; i++ {
		if err := write(i); err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
	}
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errc := make(chan error, writers+assessors+1)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < churnOps; i++ {
				if err := write(w*churnOps + i); err != nil {
					errc <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for a := 0; a < assessors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < churnOps; i++ {
				req := wire.AssessRequest{Server: id(a*7 + i), Threshold: 0.7}
				if _, err := srv.Assess(ctx, req); err != nil {
					// Eviction thrash is the one legitimate refusal under a
					// deliberately tiny budget; anything else is a bug.
					if we, ok := err.(*wire.ErrorResponse); ok && we.Code == wire.CodeUnavailable {
						continue
					}
					errc <- fmt.Errorf("assessor %d op %d: %w", a, i, err)
					return
				}
			}
		}(a)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			if _, err := ps.Snapshot(); err != nil {
				errc <- fmt.Errorf("snapshot %d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Differential: every server, faulted in if needed, must assess exactly
	// like a fresh assessor over the same records.
	ref := testAssessor(t)
	for i := 0; i < servers; i++ {
		resp, err := srv.Assess(ctx, wire.AssessRequest{Server: id(i), Threshold: 0.7})
		if err != nil {
			t.Fatalf("final assess %s: %v", id(i), err)
		}
		recs := ps.Store().Records(id(i))
		if len(recs) == 0 {
			t.Fatalf("server %s lost its records", id(i))
		}
		h, err := historyOf(id(i), recs)
		if err != nil {
			t.Fatal(err)
		}
		wantAccept, wantA, err := ref.Accept(h, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Accept != wantAccept || resp.Assessment.Trust != wantA.Trust {
			t.Fatalf("server %s: served (%v, %v) vs reference (%v, %v)",
				id(i), resp.Accept, resp.Assessment.Trust, wantAccept, wantA.Trust)
		}
	}
	if srv.Metrics().Value("lifecycle.reinstates") == uint64(0) {
		t.Fatal("churn produced no fault-ins; budget not small enough to exercise the lifecycle")
	}
	if srv.Metrics().Value("lifecycle.evictions") == uint64(0) {
		t.Fatal("no evictions under a 12KiB budget")
	}
}
