package ledger

// Rebuild-on-demand: reconstructing one evicted server's resident state
// without replaying the whole ledger. The sources are (a) the newest
// published snapshot, read by per-server byte range through the section
// index kept since boot or the last snapshot write, and (b) the tail index —
// an in-memory per-server map of every record appended since the segment the
// snapshot covers. The section decodes straight into a history and the tail
// records merge into it the way a write would (store.Merge: the snapshot scan
// and the tail overlap by design, exactly like boot, and the history's own
// order finds the duplicates). gatherServer is the store's Loader: the store
// verifies what it returns against the evicted stub's Checksum before
// swapping it in, so a corrupt
// section read or a lost record can never silently resurface as wrong state
// — it surfaces as a failed fault-in.
//
// The tail index rotates with snapshots: sealForSnapshot moves it to the
// pending generation (the records the in-flight snapshot will cover), a
// successful publish drops pending, and a failed one leaves pending in place
// to be merged into the next attempt. A rebuild always reads snapshot ∪
// pending ∪ tail, so it is correct in every phase of that cycle.
//
// The pin guard closes the store-first/ledger-second write race: a server is
// pinned from before its record enters the store until the record is both in
// the ledger and in the tail index, and the store's eviction sweep skips
// pinned servers — so a stub's records are always fully reconstructable.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"honestplayer/internal/feedback"
	"honestplayer/internal/store"
)

// secRange is one server's byte range inside a snapshot file, starting at
// its id-length uvarint and ending after its history columns.
type secRange struct{ off, end int64 }

// snapIndex locates every server section of the newest published snapshot.
type snapIndex struct {
	path     string
	sections map[string]secRange
}

// pin marks a server's write as in flight: the eviction sweep must not evict
// it until the record is durable and tail-indexed.
func (ps *PersistentStore) pin(id feedback.EntityID) {
	ps.pinMu.Lock()
	if ps.pinned == nil {
		ps.pinned = make(map[string]int)
	}
	ps.pinned[string(id)]++
	ps.pinMu.Unlock()
}

func (ps *PersistentStore) unpin(id feedback.EntityID) {
	ps.pinMu.Lock()
	if n := ps.pinned[string(id)]; n <= 1 {
		delete(ps.pinned, string(id))
	} else {
		ps.pinned[string(id)] = n - 1
	}
	ps.pinMu.Unlock()
}

// isPinned is the store.EvictGuard installed when the lifecycle is enabled.
func (ps *PersistentStore) isPinned(id feedback.EntityID) bool {
	ps.pinMu.Lock()
	_, ok := ps.pinned[string(id)]
	ps.pinMu.Unlock()
	return ok
}

// tailAdd records a post-snapshot append in the tail index.
func (ps *PersistentStore) tailAdd(f feedback.Feedback) {
	ps.tailMu.Lock()
	if ps.tailIdx == nil {
		ps.tailIdx = make(map[string][]feedback.Feedback)
	}
	ps.tailIdx[string(f.Server)] = append(ps.tailIdx[string(f.Server)], f)
	ps.tailMu.Unlock()
}

// rotateTail moves the tail index into the pending generation at snapshot
// seal time. Pending survives a failed snapshot, so rotation merges rather
// than replaces: pending records are older than tail records by
// construction, and the rebuild merge does not depend on it anyway.
func (ps *PersistentStore) rotateTail() {
	ps.tailMu.Lock()
	if ps.pendingTail == nil {
		ps.pendingTail = ps.tailIdx
	} else {
		for id, recs := range ps.tailIdx {
			ps.pendingTail[id] = append(ps.pendingTail[id], recs...)
		}
	}
	ps.tailIdx = nil
	ps.tailMu.Unlock()
}

// dropPendingTail discards the pending generation after its records are
// covered by a published snapshot, and points the section index at it.
func (ps *PersistentStore) dropPendingTail(seq uint64, sections map[string]secRange) {
	ps.tailMu.Lock()
	ps.pendingTail = nil
	ps.snapIdx = &snapIndex{path: filepath.Join(ps.ledger.dir, snapshotName(seq)), sections: sections}
	ps.tailMu.Unlock()
}

// sectionFiles caches open snapshot files across a bulk gather — the
// snapshot writer reads one section per evicted server, and opening the
// previous snapshot once instead of once per stub is the difference between
// O(stubs) preads and O(stubs) opens. A nil *sectionFiles opens per read
// (the single-server fault-in path).
type sectionFiles struct{ files map[string]*os.File }

func (c *sectionFiles) get(path string) (*os.File, error) {
	if f, ok := c.files[path]; ok {
		return f, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if c.files == nil {
		c.files = make(map[string]*os.File)
	}
	c.files[path] = f
	return f, nil
}

func (c *sectionFiles) close() {
	for _, f := range c.files {
		_ = f.Close()
	}
	c.files = nil
}

// gatherServer collects every known record of one server — newest snapshot
// section plus both tail generations — into one history in store order;
// cache, when non-nil, reuses open snapshot files across calls.
func (ps *PersistentStore) gatherServer(id feedback.EntityID, cache *sectionFiles) (*feedback.History, error) {
	ps.tailMu.Lock()
	idx, tail := ps.sources(id)
	ps.tailMu.Unlock()
	return ps.gatherFrom(id, idx, tail, cache)
}

// sources returns the section index and a copy of id's records in both tail
// generations; the caller holds tailMu, so the three agree.
func (ps *PersistentStore) sources(id feedback.EntityID) (*snapIndex, []feedback.Feedback) {
	return ps.snapIdx, append(append([]feedback.Feedback(nil), ps.pendingTail[string(id)]...), ps.tailIdx[string(id)]...)
}

// gatherFrom is gatherServer over sources read earlier. Between that read and
// opening the section's file, two snapshots may publish and prune it; then
// the index has moved on, and it reads the sources again and retries: the
// newer snapshot carries every server's full covered history.
func (ps *PersistentStore) gatherFrom(id feedback.EntityID, idx *snapIndex, tail []feedback.Feedback, cache *sectionFiles) (*feedback.History, error) {
	for {
		hist, err := gatherSources(id, idx, tail, cache)
		if !errors.Is(err, fs.ErrNotExist) {
			return hist, err
		}
		ps.tailMu.Lock()
		moved := ps.snapIdx != idx
		if moved {
			idx, tail = ps.sources(id)
		}
		ps.tailMu.Unlock()
		if !moved {
			return nil, err
		}
	}
}

// gatherSources merges id's tail records into its section of idx.
func gatherSources(id feedback.EntityID, idx *snapIndex, tail []feedback.Feedback, cache *sectionFiles) (*feedback.History, error) {
	hist := feedback.NewHistory(id)
	if idx != nil {
		if r, ok := idx.sections[string(id)]; ok {
			var err error
			if hist, err = readSnapshotSection(idx.path, r, id, cache); err != nil {
				return nil, err
			}
		}
	}
	for _, f := range tail {
		var err error
		if hist, err = store.Merge(hist, f); err != nil {
			return nil, err
		}
	}
	return hist, nil
}

// readSnapshotSection reads and decodes one server's section from a
// snapshot file by byte range (via cache when non-nil). Integrity is
// verified end-to-end by the store's reinstate digest check rather than
// per-section checksums.
func readSnapshotSection(path string, r secRange, id feedback.EntityID, cache *sectionFiles) (*feedback.History, error) {
	var f *os.File
	var err error
	if cache != nil {
		if f, err = cache.get(path); err != nil {
			return nil, fmt.Errorf("ledger: open snapshot for rebuild: %w", err)
		}
	} else {
		if f, err = os.Open(path); err != nil {
			return nil, fmt.Errorf("ledger: open snapshot for rebuild: %w", err)
		}
		defer func() { _ = f.Close() }()
	}
	if r.end <= r.off {
		return nil, fmt.Errorf("ledger: bad section range for %q", id)
	}
	buf := make([]byte, r.end-r.off)
	if _, err := f.ReadAt(buf, r.off); err != nil {
		return nil, fmt.Errorf("ledger: read section of %q: %w", id, err)
	}
	hist, rest, err := decodeServerSection(buf)
	if err != nil {
		return nil, fmt.Errorf("ledger: decode section of %q: %w", id, err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("ledger: section of %q: %d trailing bytes", id, len(rest))
	}
	if hist.Server() != id {
		return nil, fmt.Errorf("ledger: section range for %q holds %q", id, hist.Server())
	}
	return hist, nil
}
