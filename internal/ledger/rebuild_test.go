package ledger

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/metrics"
	"honestplayer/internal/store"
)

// evictAll evicts every server in the store and returns how many went.
func evictAll(t *testing.T, st *store.Store) int {
	t.Helper()
	n := 0
	for _, srv := range st.Servers() {
		if st.EvictServer(srv) {
			n++
		}
	}
	if n == 0 {
		t.Fatal("nothing evicted")
	}
	return n
}

// isStub reports whether server is evicted, without faulting it in.
func isStub(st *store.Store, server feedback.EntityID) (stub bool) {
	st.ViewShard(st.ShardIndex(server), []feedback.EntityID{server},
		func(_ int, _ store.Accumulator, snap *feedback.History, version uint64) {
			stub = snap == nil && version > 0
		})
	return stub
}

// rebuildAll faults every evicted server back in through a read.
func rebuildAll(t *testing.T, ps *PersistentStore) {
	t.Helper()
	for _, srv := range ps.Store().Servers() {
		if !isStub(ps.Store(), srv) {
			continue
		}
		if _, err := ps.Store().History(srv); err != nil {
			t.Fatalf("fault-in of %q: %v", srv, err)
		}
	}
}

// lifecycleMetric reads one of the store's lifecycle.* keys.
func lifecycleMetric(st *store.Store, key string) any {
	reg := metrics.New()
	st.RegisterMetrics(reg)
	return reg.Value("lifecycle." + key)
}

// TestRebuildBitIdentical: evicting a server and rebuilding it on demand
// must restore exactly the state a never-evicted twin holds — records,
// versions, checksums, and (under "incremental", for every tester mode and
// trust function) the assessment of each history. Records deliberately span a
// snapshot and a post-snapshot tail so the rebuild has to merge both sources.
func TestRebuildBitIdentical(t *testing.T) {
	t.Run("trustonly", func(t *testing.T) {
		checkRebuild(t, Options{Shards: 4, SegmentBytes: 1 << 20}, nil)
	})
	t.Run("incremental", func(t *testing.T) {
		forEachAssessor(t, func(t *testing.T, scheme, trustName string) {
			opts, tp := assessorOptions(t, scheme, trustName, 4, 1<<20, 0)
			checkRebuild(t, opts, tp)
		})
	})
}

func checkRebuild(t *testing.T, opts Options, tp *core.TwoPhase) {
	dir := filepath.Join(t.TempDir(), "led")
	opts.MemBudget = 1 << 40 // lifecycle on, budget never binds

	ps, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	workload(t, ps, 200, 0)
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 90, 200) // tail records past the snapshot
	want := storeFingerprint(t, ps.Store(), tp)

	evictAll(t, ps.Store())
	rebuildAll(t, ps)

	got := storeFingerprint(t, ps.Store(), tp)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("rebuilt state diverges from never-evicted state")
	}
	if lifecycleMetric(ps.Store(), "reinstates") == uint64(0) {
		t.Fatal("reinstate counter did not move")
	}
}

// TestRebuildAcrossRotation: records for one server scattered over several
// snapshot generations plus a live tail must all come back. Each snapshot
// covers all prior history (forgetting-safe), so the rebuild reads the
// newest snapshot section and the in-memory tail only.
func TestRebuildAcrossRotation(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	opts, tp := averageOptions(t, 2, 1<<20, 0)
	opts.MemBudget = 1 << 40

	ps, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	for round := 0; round < 3; round++ {
		workload(t, ps, 70, round*70)
		if _, err := ps.Snapshot(); err != nil {
			t.Fatalf("snapshot round %d: %v", round, err)
		}
		// Evict between rounds too: later snapshots must rebuild stub
		// sections from their predecessors rather than drop them.
		evictAll(t, ps.Store())
	}
	workload(t, ps, 33, 210) // un-snapshotted tail
	rebuildAll(t, ps)
	want := storeFingerprint(t, ps.Store(), tp)

	evictAll(t, ps.Store())
	rebuildAll(t, ps)
	if got := storeFingerprint(t, ps.Store(), tp); !reflect.DeepEqual(want, got) {
		t.Fatal("rebuild across rotations diverges")
	}

	// A fresh boot from the stub-bearing snapshot chain must also converge.
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	boot, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	if got := storeFingerprint(t, boot.Store(), tp); !reflect.DeepEqual(want, got) {
		t.Fatal("boot after evictions diverges from live state")
	}
}

// TestSnapshotWithEvictedServers: a snapshot taken while servers are evicted
// must still carry their complete history (the forgetting-safe invariant):
// delete every older snapshot and the ledger segments' replay must not be
// needed — boot from the newest snapshot alone reproduces everything.
func TestSnapshotWithEvictedServers(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	opts, tp := averageOptions(t, 2, 1<<20, 0)
	opts.MemBudget = 1 << 40

	ps, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 150, 0)
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 60, 150)
	evictAll(t, ps.Store())
	seq, err := ps.Snapshot() // must fold evicted sections forward
	if err != nil {
		t.Fatal(err)
	}
	rebuildAll(t, ps)
	want := storeFingerprint(t, ps.Store(), tp)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// Remove everything but the newest snapshot; boot must not miss data.
	seqs, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range seqs {
		if old != seq {
			if err := os.Remove(filepath.Join(dir, snapshotName(old))); err != nil {
				t.Fatal(err)
			}
		}
	}
	boot, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer boot.Close()
	if ledgerMetric(boot, "boot_mode") != "snapshot" {
		t.Fatalf("boot mode = %q, want snapshot", ledgerMetric(boot, "boot_mode"))
	}
	if got := storeFingerprint(t, boot.Store(), tp); !reflect.DeepEqual(want, got) {
		t.Fatal("snapshot taken with evicted servers lost history")
	}
}

// TestWritePathSelfHeals: a write addressed to an evicted server must fault
// the server in transparently — through the store, with one load — and land,
// not surface ErrEvicted.
func TestWritePathSelfHeals(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	opts := Options{Shards: 2, SegmentBytes: 1 << 20, MemBudget: 1 << 40}
	ps, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	workload(t, ps, 50, 0)
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}
	victim := ps.Store().Servers()[0]
	if !ps.Store().EvictServer(victim) {
		t.Fatal("evict failed")
	}
	f := rec("x", true, 9999)
	f.Server = victim
	f.Client = "healer"
	if ok, err := ps.Add(f); err != nil || !ok {
		t.Fatalf("write to evicted server = (%v, %v), want self-healed add", ok, err)
	}
	if isStub(ps.Store(), victim) {
		t.Fatal("server still evicted after self-healing write")
	}
	if n := ps.Store().ServerLen(victim); n == 0 {
		t.Fatal("rebuilt server lost its records")
	}
	if got := lifecycleMetric(ps.Store(), "reinstates"); got != uint64(1) {
		t.Fatalf("lifecycle.reinstates = %v, want 1", got)
	}
}

// TestRebuildUnknownServer: a server the store has never seen is not a stub,
// so reading it loads nothing and invents no state.
func TestRebuildUnknownServer(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	ps, err := OpenStoreOptions(context.Background(), dir, Options{Shards: 2, MemBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	if h, err := ps.Store().History("ghost"); err != nil || h.Len() != 0 {
		t.Fatalf("read of an unknown server = (%v, %v), want an empty history", h, err)
	}
	if n := len(ps.Store().Servers()); n != 0 || lifecycleMetric(ps.Store(), "reinstates") != uint64(0) {
		t.Fatalf("the read invented state: %d servers, reinstates %v", n, lifecycleMetric(ps.Store(), "reinstates"))
	}
}

// TestGatherAfterSnapshotPruned: a fault-in reads the section index, then
// opens the snapshot it names. When two snapshots publish in between,
// pruneSnapshots has deleted that file; the gather must read the index and
// the tail again and rebuild from the newer snapshot, not fail the write
// that asked for it. Once the index names a file that is gone, it fails.
func TestGatherAfterSnapshotPruned(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	ps, err := OpenStoreOptions(context.Background(), dir, Options{Shards: 2, SegmentBytes: 1 << 20, MemBudget: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	workload(t, ps, 70, 0)
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 20, 70)
	const victim = "sa"
	ps.tailMu.Lock()
	idx, tail := ps.sources(victim)
	ps.tailMu.Unlock()
	for round := 0; round < 2; round++ {
		workload(t, ps, 20, 90+20*round)
		if _, err := ps.Snapshot(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(idx.path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the first snapshot survived two more: %v", err)
	}
	want, err := ps.gatherServer(victim, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() != ps.Store().ServerLen(victim) {
		t.Fatalf("gathered %d records, the store holds %d", want.Len(), ps.Store().ServerLen(victim))
	}
	got, err := ps.gatherFrom(victim, idx, tail, nil)
	if err != nil {
		t.Fatalf("gather from a pruned snapshot's index: %v", err)
	}
	if !reflect.DeepEqual(got.Records(), want.Records()) {
		t.Fatal("the retried gather differs from a fresh one")
	}
	ps.tailMu.Lock()
	current := ps.snapIdx.path
	ps.tailMu.Unlock()
	if err := os.Remove(current); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.gatherServer(victim, nil); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("gather with the newest snapshot gone: %v, want ErrNotExist", err)
	}
}
