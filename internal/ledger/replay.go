package ledger

// Boot replay. Sealed segments are immutable and self-verifying, so they are
// decoded in parallel across a bounded worker pool and consumed strictly in
// file order — the order appends happened — so per-server history order is
// preserved without a merge step. No segment is ever held decoded: a worker
// hands its records over in batches through a channel that holds one, so
// what replay keeps of a segment beyond its file bytes is a few batches and
// the segment's id dictionary, whose strings the records share. Snapshot
// boots pass a starting segment: everything before it is covered by the
// snapshot and is skipped entirely (only its footer is read, for record
// accounting).
//
// Corruption in a sealed segment degrades exactly like a torn active tail:
// replay keeps the segment's intact block prefix, deletes every later
// segment, truncates the file back to the intact prefix, and re-adopts it as
// the active segment — the ledger's longest verified prefix, ready for new
// appends. The byte and segment counts of everything discarded are surfaced
// in the boot log and as the ledger_truncations and truncated_bytes metrics
// instead of vanishing silently.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"

	"honestplayer/internal/feedback"
)

// maxReplayWorkers caps the sealed-segment decode pool (and with it the
// number of segment files held in memory at once).
const maxReplayWorkers = 8

// segStream is one segment being decoded by a worker: its record batches in
// order and, once batches is closed, how the scan ended.
type segStream struct {
	batches chan *feedback.Batch
	scan    segScan
	err     error
}

// streamSegment starts the worker that decodes segment idx. The worker stops
// early when ctx is cancelled and has exited when wg is done.
func (l *Ledger) streamSegment(ctx context.Context, wg *sync.WaitGroup, idx uint64, verifyOnly bool) *segStream {
	st := &segStream{batches: make(chan *feedback.Batch, 1)}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(st.batches)
		data, err := readSegmentFile(l.segPath(idx))
		if err != nil {
			st.err = err
			return
		}
		var send func(*feedback.Batch) error
		if !verifyOnly {
			send = func(batch *feedback.Batch) error {
				select {
				case st.batches <- batch:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
		st.scan, st.err = scanSegment(data, send)
	}()
	return st
}

// replayFrom replays every intact record in segments from..active, in log
// order, invoking emit with successive batches that it owns (a nil emit only
// verifies and counts). It must run once, right after openLedger and before
// any Append. Corrupt content never fails the replay — it truncates the
// ledger to its longest verified prefix — but emit errors and ctx
// cancellation abort it.
func (l *Ledger) replayFrom(ctx context.Context, from uint64, emit func(*feedback.Batch) error) error {
	segs, err := l.listSegments()
	if err != nil {
		return err
	}
	active := l.segIndex
	if from > active {
		from = active
	}
	// Segments below the snapshot horizon: record accounting only. The
	// active segment was truncated to its intact prefix at open and streams
	// last, like the sealed ones before it.
	var consume []uint64
	for _, idx := range segs {
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
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait() // after cancel: no worker outlives the replay
	defer cancel()
	streams := make([]*segStream, len(consume))
	spawned := 0
	for i, idx := range consume {
		for ; spawned < len(consume) && spawned < i+workers; spawned++ {
			streams[spawned] = l.streamSegment(ctx, &wg, consume[spawned], emit == nil)
		}
		st := streams[i]
		streams[i] = nil // a consumed segment's dictionaries go with it
		for batch := range st.batches {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("ledger: replay: %w", err)
			}
			if err := emit(batch); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("ledger: replay: %w", err)
		}
		if st.err != nil {
			return st.err
		}
		l.records += st.scan.records
		if idx == active {
			break
		}
		if !st.scan.sealed && st.scan.truncated > 0 {
			// Corrupt sealed segment: everything after it is suspect. Truncate
			// the ledger here and adopt the segment as the new active tail.
			return l.adoptTruncated(idx, st.scan, consume[i+1:])
		}
		l.sealedSegs++
		l.sealedBytes += st.scan.intact
	}
	return nil
}

// skippedSegmentStats reads a snapshot-covered segment's footer for its
// record count without decoding the segment; the capture sealed every
// segment below the snapshot's horizon, so the count is exact.
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

// adoptTruncated makes a corrupt sealed segment the ledger's new tail: later
// segments (including the previously active one) are deleted, the file is
// truncated back to its intact prefix, and appends resume there.
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
	if err := l.adopt(idx, sc); err != nil {
		return err
	}
	syncDir(l.dir)
	return nil
}
