package ledger

// Boot replay. Sealed segments are immutable and self-verifying, so they are
// decoded in parallel across a bounded worker pool and consumed strictly in
// file order — the order appends happened — so per-server history order is
// preserved without a merge step. The active segment is streamed in batches
// so boot never materializes the whole log in memory. Snapshot boots pass a
// starting segment: everything before it is covered by the snapshot and is
// skipped entirely (only its footer is read, for record accounting).
//
// Corruption in a sealed segment degrades exactly like a torn active tail:
// replay keeps the segment's intact record prefix, deletes every later
// segment, truncates the file back to the intact prefix, and re-adopts it as
// the active segment — the ledger's longest verified prefix, ready for new
// appends. The byte and segment counts of everything discarded are surfaced
// via Stats (the ledger_truncations metric) instead of vanishing silently.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"

	"honestplayer/internal/feedback"
)

// replayBatch is the record batch size streamed out of the active segment.
const replayBatch = 4096

// maxReplayWorkers caps the sealed-segment decode pool (and with it the
// number of decoded segments held in memory at once).
const maxReplayWorkers = 8

// segResult is one decoded sealed segment.
type segResult struct {
	recs []feedback.Feedback
	scan segScan
	err  error
}

// replayFrom replays every intact record in segments from..active, in log
// order, invoking emit with successive batches. It must run once, right
// after openLedger and before any Append. Corrupt content never fails the
// replay — it truncates the ledger to its longest verified prefix — but
// emit errors and ctx cancellation abort it.
func (l *Ledger) replayFrom(ctx context.Context, from uint64, emit func([]feedback.Feedback) error) error {
	segs, err := l.listSegments()
	if err != nil {
		return err
	}
	active := l.segIndex
	if from > active {
		from = active
	}
	var sealed []uint64 // non-active segments, ascending
	for _, idx := range segs {
		if idx != active {
			sealed = append(sealed, idx)
		}
	}
	// Segments below the snapshot horizon: record accounting only.
	consume := sealed[:0]
	for _, idx := range sealed {
		if idx < from {
			count, size := l.skippedSegmentStats(idx)
			l.records += count
			l.sealedSegs++
			l.sealedBytes += size
			continue
		}
		consume = append(consume, idx)
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > maxReplayWorkers {
		workers = maxReplayWorkers
	}
	if workers < 1 {
		workers = 1
	}
	results := make([]chan segResult, len(consume))
	spawned := 0
	spawn := func() {
		idx := consume[spawned]
		ch := make(chan segResult, 1)
		results[spawned] = ch
		spawned++
		go func() {
			data, err := readSegmentFile(l.segPath(idx))
			if err != nil {
				ch <- segResult{err: err}
				return
			}
			recs := make([]feedback.Feedback, 0, len(data)/32)
			sc, _ := scanSegment(data, func(f feedback.Feedback) error {
				recs = append(recs, f)
				return nil
			})
			ch <- segResult{recs: recs, scan: sc}
		}()
	}

	for i := 0; i < len(consume); i++ {
		for spawned < len(consume) && spawned < i+workers {
			spawn()
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("ledger: replay: %w", err)
		}
		res := <-results[i]
		if res.err != nil {
			return res.err
		}
		if len(res.recs) > 0 && emit != nil {
			if err := emit(res.recs); err != nil {
				return err
			}
		}
		l.records += res.scan.records
		if !res.scan.sealed && res.scan.truncated > 0 {
			// Corrupt sealed segment: everything after it is suspect. Truncate
			// the ledger here and adopt the segment as the new active tail.
			return l.adoptTruncated(consume[i], res.scan, append(consume[i+1:], active))
		}
		l.sealedSegs++
		l.sealedBytes += res.scan.intact
	}

	// The active segment was truncated to its intact prefix at open; stream
	// it in batches.
	if emit == nil {
		l.records += l.segRecs
		return nil
	}
	data, err := readSegmentFile(l.segPath(active))
	if err != nil {
		return err
	}
	batch := make([]feedback.Feedback, 0, replayBatch)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := emit(batch); err != nil {
			return err
		}
		batch = batch[:0]
		return nil
	}
	n := 0
	if _, err := scanSegment(data, func(f feedback.Feedback) error {
		if n%replayBatch == 0 {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("ledger: replay: %w", err)
			}
		}
		n++
		batch = append(batch, f)
		if len(batch) == replayBatch {
			return flush()
		}
		return nil
	}); err != nil {
		return err
	}
	if err := flush(); err != nil {
		return err
	}
	l.records += l.segRecs
	return nil
}

// skippedSegmentStats reads a snapshot-covered segment's footer for its
// record count without decoding the segment. Legacy JSON segments have no
// footer; their count is reported as 0 (Stats documents the approximation).
func (l *Ledger) skippedSegmentStats(idx uint64) (records uint64, size int64) {
	path := l.segPath(idx)
	fi, err := os.Stat(path)
	if err != nil {
		return 0, 0
	}
	size = fi.Size()
	if size < footerSize {
		return 0, size
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, size
	}
	defer func() { _ = f.Close() }()
	buf := make([]byte, footerSize)
	if _, err := f.ReadAt(buf, size-footerSize); err != nil {
		return 0, size
	}
	if fc, ok := parseFooter(buf); ok {
		return fc.count, size
	}
	return 0, size
}

// adoptTruncated makes a corrupt sealed segment the ledger's new active
// tail: later segments (including the previously active one) are deleted,
// the file is truncated back to its intact prefix, and appends resume there.
func (l *Ledger) adoptTruncated(idx uint64, sc segScan, later []uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	discarded := sc.truncated
	ferr := l.w.Flush()
	cerr := l.f.Close()
	if err := errors.Join(ferr, cerr); err != nil {
		return fmt.Errorf("ledger: close active during truncation: %w", err)
	}
	for _, j := range later {
		if fi, err := os.Stat(l.segPath(j)); err == nil {
			discarded += fi.Size()
		}
		if err := os.Remove(l.segPath(j)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("ledger: drop segment %d: %w", j, err)
		}
	}
	l.truncatedSegments++
	l.truncatedBytes += discarded
	if sc.kind == segJSON && sc.intact > 0 {
		// A legacy segment is never appended to again: its intact prefix
		// stays behind sealed and a binary segment takes over.
		l.sealedSegs++
		l.sealedBytes += sc.intact
		return l.retireJSONSegment(idx, sc.intact)
	}
	path := l.segPath(idx)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: reopen segment %s: %w", path, err)
	}
	intact := sc.intact
	if intact < int64(len(segMagic)) {
		intact = 0
	}
	if err := f.Truncate(intact); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("ledger: truncate %s: %w", path, err), cerr)
	}
	if intact == 0 {
		if _, err := f.Write(segMagic[:]); err != nil {
			cerr := f.Close()
			return errors.Join(fmt.Errorf("ledger: segment header: %w", err), cerr)
		}
		intact = int64(len(segMagic))
	} else if _, err := f.Seek(intact, io.SeekStart); err != nil {
		cerr := f.Close()
		return errors.Join(fmt.Errorf("ledger: seek %s: %w", path, err), cerr)
	}
	l.f = f
	l.w = bufio.NewWriter(f)
	l.segIndex = idx
	l.segSize = intact
	l.segRecs = sc.records
	l.chain = sc.chain
	syncDir(l.dir)
	return nil
}
