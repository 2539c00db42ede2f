package ledger

// PersistentStore glues the in-memory feedback store to the segmented
// ledger and the snapshot writer. Writes go store-first, then ledger — so
// by the time a record is on disk it is queryable, and the snapshot
// consistency argument in Snapshot holds. Boot prefers the newest verified
// snapshot (seed the store, replay only the ledger tail) and falls back,
// snapshot by snapshot, to a full replay; a damaged snapshot can never cost
// correctness, only boot time.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"honestplayer/internal/feedback"
	"honestplayer/internal/metrics"
	"honestplayer/internal/store"
)

// Options configures OpenStoreOptions. The zero value is valid: default
// shard count and segment size, no automatic snapshots.
type Options struct {
	// Shards is the in-memory store's shard count (0 = store.DefaultShards).
	Shards int
	// SegmentBytes is the ledger roll-over threshold (0 = DefaultSegmentBytes).
	SegmentBytes int64
	// SnapshotEvery triggers a background snapshot after this many durable
	// appends since the last one (0 disables automatic snapshots; Snapshot
	// can still be called directly).
	SnapshotEvery uint64
	// AccumulatorFactory is ignored.
	//
	// Deprecated: the store keeps no accumulators (ADR 0016's amendment).
	AccumulatorFactory store.AccumulatorFactory
	// EncodeAccumulator is ignored.
	//
	// Deprecated: a snapshot holds records only (ADR 0017).
	EncodeAccumulator func(acc store.Accumulator) ([]byte, bool)
	// RestoreAccumulator is ignored.
	//
	// Deprecated: a snapshot holds records only (ADR 0017).
	RestoreAccumulator func(server feedback.EntityID, state []byte) (store.Accumulator, int, error)
	// Logf, when set, receives the boot summary (records, boot mode,
	// segments) and boot and snapshot diagnostics (corrupt snapshots
	// skipped, truncation repairs, background snapshot failures).
	Logf func(format string, args ...any)
	// MemBudget, when positive, enables the resident-state lifecycle: the
	// store's accounted footprint (its histories, see store.SetBudget) is
	// kept at or under this many bytes by evicting idle servers to stubs,
	// and the store faults evicted servers back in from the newest snapshot
	// plus the in-memory tail index (gatherServer). Boot
	// seeds fully resident, snapshots once if it had to full-replay (so the
	// tail index starts empty), then trims to the budget. The tail index
	// grows with every stored record and only a snapshot empties it, so it
	// stays bounded only beside a SnapshotEvery; trustd refuses -mem-budget
	// without -snapshot-every.
	MemBudget int64
}

// PersistentStore is a feedback store backed by the ledger: every newly
// stored record is appended to the ledger, periodic snapshots bound the
// replay a future boot pays, and opening restores snapshot + tail.
type PersistentStore struct {
	store  *store.Store
	ledger *Ledger
	opts   Options
	logf   func(format string, args ...any)

	snapMu      sync.Mutex // serializes snapshot writes
	snapping    atomic.Bool
	lastSnapSeq atomic.Uint64
	snapsTaken  atomic.Uint64
	snapsFailed atomic.Uint64
	snapBytes   atomic.Uint64
	sinceSnap   atomic.Uint64
	wg          sync.WaitGroup

	// Lifecycle machinery, active when opts.MemBudget > 0 (see rebuild.go):
	// the tail index maps each server to its records appended since the
	// newest snapshot's covered segment (pendingTail is the generation an
	// in-flight snapshot is covering), snapIdx locates server sections in
	// the newest published snapshot, and pinned guards servers whose newest
	// write is not yet durable against eviction.
	tailMu      sync.Mutex
	tailIdx     map[string][]feedback.Feedback
	pendingTail map[string][]feedback.Feedback
	snapIdx     *snapIndex
	pinMu       sync.Mutex
	pinned      map[string]int

	bootMode     string
	bootSnapshot uint64
}

// OpenStore opens the ledger at path and builds the in-memory store from
// it.
func OpenStore(path string) (*PersistentStore, error) {
	return OpenStoreOptions(context.Background(), path, Options{})
}

// OpenStoreOptions opens the ledger at path and boots the store: it seeds
// from the newest snapshot that verifies and seeds cleanly, then streams
// the ledger tail into the store; with no usable snapshot it replays the
// whole ledger. Replay is streamed in batches, so boot memory is bounded by
// the store itself plus one segment. A path in an older format is refused
// with ErrOldFormat before anything in it changes (see Open).
func OpenStoreOptions(ctx context.Context, path string, opts Options) (*PersistentStore, error) {
	shards := opts.Shards
	if shards <= 0 {
		shards = store.DefaultShards
	}
	l, err := openLedger(path, opts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	ps := &PersistentStore{ledger: l, opts: opts, logf: opts.Logf}
	if ps.logf == nil {
		ps.logf = func(string, ...any) {}
	}
	// A crash mid-snapshot leaves the temp file, as large as the store, and
	// only the next snapshot — which may never come — would truncate it.
	if err := os.Remove(filepath.Join(l.dir, snapTmpName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		ps.logf("ledger: stale snapshot temp file not removed: %v", err)
	}

	seqs, err := listSnapshots(l.dir)
	if err != nil {
		cerr := l.Close()
		return nil, errors.Join(err, cerr)
	}
	if len(seqs) > 0 {
		ps.lastSnapSeq.Store(seqs[len(seqs)-1])
	}
	var st *store.Store
	from := uint64(0)
	for i := len(seqs) - 1; i >= 0 && st == nil; i-- {
		seq := seqs[i]
		path := filepath.Join(l.dir, snapshotName(seq))
		sd, err := loadSnapshot(path)
		if err != nil {
			ps.logf("ledger: snapshot %d unusable, trying older: %v", seq, err)
			continue
		}
		if cand, ok := ps.seedFromSnapshot(sd, shards); ok {
			st = cand
			from = sd.covered
			ps.bootMode = "snapshot"
			ps.bootSnapshot = seq
			if opts.MemBudget > 0 {
				ps.snapIdx = &snapIndex{path: path, sections: sd.sections}
			}
		}
	}
	if st == nil {
		st = store.NewSharded(shards)
		ps.bootMode = "replay"
	}

	// Each decoded batch goes through the store's one write, Apply. With the
	// lifecycle on, tail-replayed records double as the tail index (records
	// past the snapshot horizon must be rebuildable from memory, since the
	// snapshot file doesn't hold them). A store-level duplicate — the
	// seal/scan overlap a snapshot boot replays through — is not stored,
	// keeping the index duplicate-free.
	if err := l.replayFrom(ctx, from, func(b *feedback.Batch) error {
		for i, r := range st.Apply(b, 1) {
			if r.Err != nil {
				return fmt.Errorf("ledger: replay into store: %w", r.Err)
			}
			if r.Stored && opts.MemBudget > 0 {
				ps.tailAdd(b.At(i))
			}
		}
		return nil
	}); err != nil {
		cerr := l.Close()
		return nil, errors.Join(err, cerr)
	}
	ps.store = st
	if opts.MemBudget > 0 {
		st.SetEvictGuard(ps.isPinned)
		if ps.bootMode == "replay" && st.Len() > 0 {
			// A full replay leaves the whole history in the tail index; one
			// snapshot moves it into a section-indexed file so the budget
			// can actually be honored.
			if _, err := ps.Snapshot(); err != nil {
				cerr := l.Close()
				return nil, errors.Join(fmt.Errorf("ledger: boot snapshot for mem budget: %w", err), cerr)
			}
		}
		st.SetBudget(opts.MemBudget, func(id feedback.EntityID) (*feedback.History, error) {
			return ps.gatherServer(id, nil)
		})
	}
	ps.logf("ledger %s: %d records in store (boot mode %s, %d segments)", path, st.Len(), ps.bootMode, l.sealedSegs+1)
	if l.truncatedSegments > 0 {
		ps.logf("ledger %s: CORRUPTION repaired at boot: %d segment(s) truncated, %d bytes discarded (longest verified prefix kept)",
			path, l.truncatedSegments, l.truncatedBytes)
	}
	return ps, nil
}

// seedFromSnapshot builds a candidate store from a decoded snapshot. Any
// seeding failure discards the candidate so boot can fall back to an older
// snapshot or full replay.
func (ps *PersistentStore) seedFromSnapshot(sd *snapshotData, shards int) (*store.Store, bool) {
	cand := store.NewSharded(shards)
	for _, hist := range sd.servers {
		if err := cand.SeedServer(hist); err != nil {
			ps.logf("ledger: snapshot %d rejected: %v", sd.seq, err)
			return nil, false
		}
	}
	return cand, true
}

// Store returns the in-memory store (for read paths and for wiring into
// repserver; writes that should be durable must go through AddBatch).
func (ps *PersistentStore) Store() *store.Store { return ps.store }

// Add stores one record as an AddBatch of one and reports whether it was
// new.
func (ps *PersistentStore) Add(rec feedback.Feedback) (bool, error) {
	r := ps.AddBatch([]feedback.Feedback{rec}, 1)[0]
	return r.Stored, r.Err
}

// AddBatch is the []Feedback edge of Apply (store.AddRecords): results[i]
// reports recs[i], a record Validate refuses failing its own slot.
func (ps *PersistentStore) AddBatch(recs []feedback.Feedback, workers int) []store.AddResult {
	return store.AddRecords(recs, func(b *feedback.Batch) []store.AddResult { return ps.Apply(b, workers) })
}

// Apply is the one durable write path: b's records are inserted into the
// store one server run at a time (store.Apply, shard groups fanned over at
// most workers goroutines), and the newly stored ones are appended to the
// ledger as one group commit — one encode pass, one Write — instead of
// one write per record, kicking off a background snapshot when the
// configured interval is due. Results[i] reports record i: stored or
// duplicate, or "stored in memory but not persisted" when the ledger
// append fails after the store accepted it. With the lifecycle enabled,
// every distinct server in the batch is pinned against eviction from
// before the store accepts the write until its records are both in the
// ledger and in the tail index — evicting inside that window would mint a
// stub whose records cannot all be rebuilt yet. A write that hits an
// evicted server is the store's to fault in; the pins keep the loaded
// server resident until its records land.
func (ps *PersistentStore) Apply(b *feedback.Batch, workers int) []store.AddResult {
	if b.Len() == 0 {
		return nil
	}
	lifecycle := ps.opts.MemBudget > 0
	if lifecycle {
		for _, srv := range b.Servers() {
			ps.pin(srv)
		}
		defer func() {
			for _, srv := range b.Servers() {
				ps.unpin(srv)
			}
		}()
	}
	results := ps.store.Apply(b, workers)
	stored := b
	if slices.ContainsFunc(results, func(r store.AddResult) bool { return !r.Stored }) {
		var rows []int
		for i, r := range results {
			if r.Stored {
				rows = append(rows, i)
			}
		}
		if rows == nil {
			return results
		}
		stored = b.Select(rows)
	}
	if err := ps.ledger.commit(stored); err != nil {
		for i := range results {
			if results[i].Stored {
				results[i].Err = fmt.Errorf("stored in memory but not persisted: %w", err)
			}
		}
		return results
	}
	if lifecycle {
		for i := range stored.Len() {
			ps.tailAdd(stored.At(i))
		}
	}
	if every := ps.opts.SnapshotEvery; every > 0 && ps.sinceSnap.Add(uint64(stored.Len())) >= every {
		ps.snapshotAsync()
	}
	return results
}

// snapshotAsync starts at most one background snapshot at a time.
func (ps *PersistentStore) snapshotAsync() {
	if !ps.snapping.CompareAndSwap(false, true) {
		return
	}
	ps.wg.Add(1)
	go func() {
		defer ps.wg.Done()
		defer ps.snapping.Store(false)
		if seq, err := ps.Snapshot(); err != nil {
			ps.logf("ledger: background snapshot failed: %v", err)
		} else {
			ps.logf("ledger: snapshot %d written", seq)
		}
	}()
}

// Snapshot writes a snapshot of the current store state and returns its
// sequence number.
//
// Consistency: the ledger seals its active segment and reports the fresh
// (empty) active index first (under the ledger lock), then shards
// are scanned. Add goes store-then-ledger, so every record the captured
// position covers is already visible to the shard scan; records accepted
// during the scan land in segments >= the covered segment, which tail
// replay revisits, and the store's content-hash dedup makes the overlap
// harmless. Sealing aligns the snapshot to a segment boundary, so a
// snapshot boot replays only post-snapshot segments instead of re-decoding
// the covered segment's prefix. Evicted servers are forgetting-safe: the
// walk hands the writer a stub's Checksum instead of a history, and the
// writer materializes the stub's full section from the previous snapshot
// plus the pending tail generation (rotated out of the live tail index at
// seal time), verified against that Checksum. Every published snapshot
// therefore carries every server's complete covered history, resident or
// not — the invariant rebuild-on-demand and snapshot boot both lean on.
func (ps *PersistentStore) Snapshot() (uint64, error) {
	ps.snapMu.Lock()
	defer ps.snapMu.Unlock()
	covered, records, err := ps.ledger.sealForSnapshot()
	if err != nil {
		return 0, err
	}
	lifecycle := ps.opts.MemBudget > 0
	if lifecycle {
		ps.rotateTail()
	}
	ps.sinceSnap.Store(0)
	seq := ps.lastSnapSeq.Load() + 1
	sw, err := beginSnapshot(ps.ledger.dir, seq, covered, records)
	if err != nil {
		ps.snapsFailed.Add(1)
		return 0, err
	}
	fail := func(err error) (uint64, error) {
		sw.abort()
		ps.snapsFailed.Add(1)
		return 0, err
	}
	sections := make(map[string]secRange)
	var secFiles sectionFiles
	defer secFiles.close()
	for idx := 0; idx < ps.store.NumShards(); idx++ {
		var secs []store.ShardEntry
		ps.store.SnapshotShard(idx, func(ent store.ShardEntry) { secs = append(secs, ent) })
		// Stream record encoding outside the shard lock: the snapshot views
		// are immutable (and stub sections come from the previous snapshot
		// file plus durable tail records), so writers aren't blocked on
		// file IO.
		for _, sec := range secs {
			hist := sec.Snap
			if hist == nil {
				// The live tail is included: a server evicted after this
				// snapshot sealed may count post-seal records in its stub,
				// and those live only in the tail index. Records a write
				// added after the walk (the server faulted in and evicted
				// again) are harmless extras (boot dedups), but any other
				// set means the section would forget history — abort.
				var sum store.Checksum
				var err error
				if hist, err = ps.gatherServer(sec.Server, &secFiles); err == nil {
					sum, err = store.DigestSorted(hist)
				}
				if err == nil && sum.Count <= sec.Count && sum != sec.Checksum {
					err = fmt.Errorf("rebuilt records %+v, stub has %+v", sum, sec.Checksum)
				}
				if err != nil {
					return fail(fmt.Errorf("ledger: snapshot: evicted section %q: %w", sec.Server, err))
				}
			}
			start := sw.pos
			if err := sw.server(hist); err != nil {
				return fail(err)
			}
			sections[string(sec.Server)] = secRange{off: start, end: sw.pos}
		}
	}
	size, err := sw.finish(seq)
	if err != nil {
		ps.snapsFailed.Add(1)
		return 0, err
	}
	ps.lastSnapSeq.Store(seq)
	ps.snapsTaken.Add(1)
	ps.snapBytes.Add(uint64(size))
	if lifecycle {
		ps.dropPendingTail(seq, sections)
	}
	pruneSnapshots(ps.ledger.dir)
	return seq, nil
}

// Close waits for any in-flight background snapshot, then closes the
// ledger.
func (ps *PersistentStore) Close() error {
	ps.wg.Wait()
	return ps.ledger.Close()
}

// RegisterMetrics declares the ledger block of reg: the log's segment and
// group-commit keys, then this store's snapshots (snapshot_bytes sums the
// size of every snapshot published since open) and how it booted. Fault-ins
// are the store's to count (lifecycle.*).
func (ps *PersistentStore) RegisterMetrics(reg *metrics.Registry) {
	ps.ledger.registerMetrics(reg)
	reg.Gauge("ledger.snapshot_seq", func() any { return ps.lastSnapSeq.Load() })
	reg.Counter("ledger.snapshots_taken", &ps.snapsTaken)
	reg.Counter("ledger.snapshots_failed", &ps.snapsFailed)
	reg.Counter("ledger.snapshot_bytes", &ps.snapBytes)
	reg.Gauge("ledger.boot_mode", func() any { return ps.bootMode })
	reg.Gauge("ledger.boot_snapshot", func() any { return metrics.OmitZero(ps.bootSnapshot) })
	reg.Gauge("ledger.records_since_snapshot", func() any { return ps.sinceSnap.Load() })
}
