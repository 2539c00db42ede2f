// Package ledger provides durable storage for feedback records: a segmented,
// checksummed append-only log that a reputation node replays at startup,
// plus periodic store snapshots so a node boots from snapshot + tail instead
// of a full replay. Records are the system's ground truth — the paper's
// whole mechanism rests on transaction histories — so a production node must
// not lose them on restart, and corruption must surface as a detected,
// truncated prefix rather than silent loss.
//
// On disk a ledger is a directory of size-bounded segment files
// (ledger.000001, ledger.000002, …) and snapshot files (snapshot.0000000001,
// …). The active (highest-numbered) segment receives appends, one
// checksummed block of record columns per commit group (ADR 0008); when it
// exceeds the roll-over threshold it is sealed with a footer carrying its
// record count and CRC32C chain, and a fresh segment starts. Sealed segments
// are immutable and independently verifiable, which is what lets boot replay
// them in parallel (see segment.go for the layout).
//
// A ledger directory holds that one format (ADR 0015). A path that holds
// what an earlier revision wrote — a single-file JSON-lines ledger, or a
// directory with a v2, v1 or JSON-lines segment — is refused unchanged with
// ErrOldFormat (oldformat.go).
package ledger

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"honestplayer/internal/feedback"
	"honestplayer/internal/metrics"
)

// ErrClosed reports use of a closed ledger.
var ErrClosed = errors.New("ledger: closed")

// DefaultSegmentBytes is the default roll-over threshold: a segment that
// grows past this many bytes is sealed and a new one started.
const DefaultSegmentBytes = 64 << 20

// Ledger is a segmented append-only feedback log. It is safe for concurrent
// use.
type Ledger struct {
	mu       sync.Mutex
	dir      string
	segBytes int64

	f        *os.File // active segment
	segIndex uint64
	segSize  int64 // bytes written to the active segment (incl. header)
	segRecs  uint64
	chain    uint32              // crc chain over the active segment's blocks
	dict     feedback.BatchDicts // ids the active segment's blocks have introduced

	records     uint64 // intact records ledger-wide (replayed + appended)
	sealedSegs  int
	sealedBytes int64
	rolls       uint64

	// Boot-time corruption accounting (see registerMetrics).
	truncatedSegments int
	truncatedBytes    int64

	// Group commit: concurrent appenders enqueue their records under qmu;
	// the first appender to find no leader active becomes the leader, drains
	// the whole queue, and commits it as one group under l.mu — one encode
	// pass, one Write on the file — while the followers wait on their done
	// channels. qmu is never held across I/O and never taken with l.mu held.
	qmu        sync.Mutex
	queue      []*commitWaiter
	committing bool

	// poisoned is the sticky first write failure (guarded by l.mu). After a
	// failed Write an unknown prefix of the group may be on disk while the
	// in-memory chain no longer matches the durable bytes, so every later
	// append must fail fast rather than chain off an unwritten checksum.
	// Reopening the ledger re-scans the segment and truncates whatever
	// partial group landed.
	poisoned error

	// groupSizes holds the records each group's write carried: its count is
	// the writes, its sum the records.
	groupSizes       *metrics.Histogram
	coalescedFlushes uint64 // writes that carried > 1 record (guarded by l.mu)

	closed bool
	buf    []byte // block scratch, dropped after a group above maxKeptBuf
}

// maxKeptBuf bounds the block scratch kept between commits: one large batch
// (a Seed, an anti-entropy pull) must not pin its buffer for the life of the
// process.
const maxKeptBuf = 1 << 20

// groupBounds are the group-size histogram's bounds: a group of n records
// counts under the least power of two at or above n, groups past 1024
// under 1024.
var groupBounds = []uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// commitWaiter is one appender's stake in a group commit: its records and
// the channel the leader delivers the group's shared result on.
type commitWaiter struct {
	batch *feedback.Batch
	done  chan error
}

// Open opens (creating if needed) the ledger directory at path, replays every
// intact record, truncates any torn or corrupt tail, and returns the ledger
// together with the replayed records in log order. A path in an older format
// is refused with ErrOldFormat and left as it was.
//
// The returned slice materializes the whole log; server boot paths should
// prefer OpenStoreOptions, which streams the replay into a store instead.
func Open(path string) (*Ledger, []feedback.Feedback, error) {
	l, err := openLedger(path, DefaultSegmentBytes)
	if err != nil {
		return nil, nil, err
	}
	var recs []feedback.Feedback
	if err := l.replayFrom(context.Background(), 0, func(b *feedback.Batch) error {
		recs = append(recs, b.Records()...)
		return nil
	}); err != nil {
		cerr := l.Close()
		if cerr != nil {
			return nil, nil, errors.Join(err, cerr)
		}
		return nil, nil, err
	}
	return l, recs, nil
}

// openLedger opens the ledger directory at path, creating it if it does not
// exist, and prepares the active segment for appends, truncating its torn
// tail if any. It refuses an older format before it writes anything (see
// checkCurrent) and does not replay sealed segments; replayFrom does. A
// missing parent directory fails.
func openLedger(path string, segBytes int64) (*Ledger, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := checkCurrent(path); err != nil {
		return nil, err
	}
	if err := os.Mkdir(path, 0o755); err != nil && !errors.Is(err, os.ErrExist) {
		return nil, fmt.Errorf("ledger: open %s: %w", path, err)
	}
	l := &Ledger{dir: path, segBytes: segBytes, groupSizes: metrics.HistogramOver(groupBounds)}
	segs, err := l.listSegments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return l, l.createSegment(1)
	}
	return l, l.openActive(segs[len(segs)-1])
}

// syncDir best-effort fsyncs a directory so renames within it are durable.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// listSegments returns the segment indexes present, sorted ascending.
func (l *Ledger) listSegments() ([]uint64, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, fmt.Errorf("ledger: list %s: %w", l.dir, err)
	}
	var out []uint64
	for _, e := range ents {
		if idx, ok := parseSegmentName(e.Name()); ok && !e.IsDir() {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (l *Ledger) segPath(idx uint64) string {
	return filepath.Join(l.dir, segmentName(idx))
}

// createSegment creates a fresh segment and makes it active.
func (l *Ledger) createSegment(idx uint64) error {
	f, err := os.OpenFile(l.segPath(idx), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: create segment: %w", err)
	}
	return l.startSegment(f, idx)
}

// startSegment empties f, writes the segment header and makes f the active
// segment, with the empty dictionaries every segment starts from.
func (l *Ledger) startSegment(f *os.File, idx uint64) error {
	err := f.Truncate(0)
	if err == nil {
		_, err = f.WriteAt(segMagic[:], 0)
	}
	if err == nil {
		_, err = f.Seek(int64(len(segMagic)), io.SeekStart)
	}
	if err != nil {
		return errors.Join(fmt.Errorf("ledger: segment header: %w", err), f.Close())
	}
	l.setActive(f, idx, segScan{intact: int64(len(segMagic))})
	return nil
}

// setActive makes f, positioned at the end of the intact prefix sc describes,
// the active segment.
func (l *Ledger) setActive(f *os.File, idx uint64, sc segScan) {
	l.f = f
	l.segIndex = idx
	l.segSize = sc.intact
	l.segRecs = sc.records
	l.chain = sc.chain
	l.dict = sc.dict
}

// adopt makes segment idx, scanned as sc and found unsealed, the tail of the
// ledger: it is cut back to its intact prefix and appended to, with the
// dictionaries that prefix built — or, without an intact header, rewritten
// from its header.
func (l *Ledger) adopt(idx uint64, sc segScan) error {
	path := l.segPath(idx)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("ledger: open segment %s: %w", path, err)
	}
	if sc.intact < int64(len(segMagic)) {
		return l.startSegment(f, idx)
	}
	err = f.Truncate(sc.intact)
	if err == nil {
		_, err = f.Seek(sc.intact, io.SeekStart)
	}
	if err != nil {
		return errors.Join(fmt.Errorf("ledger: truncate %s: %w", path, err), f.Close())
	}
	l.setActive(f, idx, sc)
	return nil
}

// openActive prepares the highest-numbered segment for appends: it scans the
// file structurally (no record emission), truncates anything past the intact
// prefix, and seeks to the end. A fully-sealed highest segment — the
// kill-during-roll-over case — is left untouched and a fresh segment is
// created after it.
func (l *Ledger) openActive(idx uint64) error {
	data, err := readSegmentFile(l.segPath(idx))
	if err != nil {
		return err
	}
	sc, _ := scanSegment(data, nil) // nil emit: scan never fails
	if sc.sealed {
		// Kill-during-roll-over: the segment sealed but its successor never
		// landed. Leave it for replayFrom to consume and start the next one.
		return l.createSegment(idx + 1)
	}
	if sc.truncated > 0 {
		l.truncatedSegments++
		l.truncatedBytes += sc.truncated
	}
	return l.adopt(idx, sc)
}

// Append durably appends one record, rolling the active segment over when it
// exceeds the configured threshold. Concurrent appenders group-commit: their
// records are coalesced into one encode + one Write issued by a single
// leader, so N concurrent appends cost one write syscall instead of N.
func (l *Ledger) Append(rec feedback.Feedback) error {
	return l.AppendBatch([]feedback.Feedback{rec})
}

// AppendBatch durably appends all records as one group (plus whatever
// concurrent appenders joined the same commit): the []Feedback edge of the
// ledger's one write, which packs recs into a batch. All-or-nothing: a
// record Validate refuses fails the batch before anything is queued, and
// the group's single Write either persists the whole batch or fails it
// whole.
func (l *Ledger) AppendBatch(recs []feedback.Feedback) error {
	b, errs := feedback.Pack(recs)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return l.commit(b)
}

// commit enqueues b for the group committer and waits for the result; an
// empty batch is no write.
// The first appender to arrive while no leader is active becomes the leader:
// it repeatedly drains the whole queue and commits it as one group, handing
// each waiter the group's shared error, until the queue is empty. Everyone
// else just waits — their records ride the leader's write.
func (l *Ledger) commit(b *feedback.Batch) error {
	if b.Len() == 0 {
		return nil
	}
	w := &commitWaiter{batch: b, done: make(chan error, 1)}
	l.qmu.Lock()
	l.queue = append(l.queue, w)
	if l.committing {
		l.qmu.Unlock()
		return <-w.done
	}
	l.committing = true
	for len(l.queue) > 0 {
		group := l.queue
		l.queue = nil
		l.qmu.Unlock()
		err := l.commitGroup(group)
		for _, cw := range group {
			cw.done <- err
		}
		l.qmu.Lock()
	}
	l.committing = false
	l.qmu.Unlock()
	return <-w.done
}

// commitGroup encodes the queued batches, in queue order, as one block —
// their columns, the refs remapped onto the segment's dictionaries,
// length-prefixed and checksummed, the checksum folded into a chain computed
// locally so a failed write never advances the in-memory one — and issues a
// single Write for it. A Write failure poisons the ledger (see the poisoned
// field). A batch holds valid records only, so encoding cannot
// fail.
func (l *Ledger) commitGroup(group []*commitWaiter) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	bs, n := make([]*feedback.Batch, len(group)), uint64(0)
	for i, w := range group {
		bs[i], n = w.batch, n+uint64(w.batch.Len())
	}
	block := appendBlock(l.buf[:0], bs, &l.dict)
	l.buf = block
	if cap(block) > maxKeptBuf {
		l.buf = nil
	}
	if _, err := l.f.Write(block); err != nil {
		l.poisoned = fmt.Errorf("ledger: poisoned by append error: %w", err)
		return fmt.Errorf("ledger: append: %w", err)
	}
	l.chain = crc32.Update(l.chain, castagnoli, block[len(block)-4:])
	l.segSize += int64(len(block))
	l.segRecs += n
	l.records += n
	l.groupSizes.Observe(n)
	if n > 1 {
		l.coalescedFlushes++
	}
	if l.segSize >= l.segBytes {
		if err := l.rollOverLocked(); err != nil {
			// The group's records are written, but the seal is in an unknown
			// state; treat it like any other failed write.
			l.poisoned = fmt.Errorf("ledger: poisoned by roll-over error: %w", err)
			return err
		}
	}
	return nil
}

// registerMetrics declares the log's keys of the ledger block.
// group_commit.flushes counts the groups written and coalesced those that
// carried more than one record; size_p50 = 4 means half of all groups
// carried at most 4 (the upper bound of a power-of-two bucket).
func (l *Ledger) registerMetrics(reg *metrics.Registry) {
	locked := func(key string, read func() any) {
		reg.Gauge("ledger."+key, func() any {
			l.mu.Lock()
			defer l.mu.Unlock()
			return read()
		})
	}
	locked("segments", func() any { return l.sealedSegs + 1 })
	locked("active_segment", func() any { return l.segIndex })
	locked("active_bytes", func() any { return l.segSize })
	locked("sealed_bytes", func() any { return l.sealedBytes })
	locked("records", func() any { return l.records })
	locked("roll_overs", func() any { return l.rolls })
	locked("ledger_truncations", func() any { return l.truncatedSegments })
	locked("truncated_bytes", func() any { return l.truncatedBytes })
	locked("group_commit.flushes", func() any { return l.groupSizes.Count() })
	locked("group_commit.coalesced", func() any { return l.coalescedFlushes })
	locked("group_commit.records", func() any { return l.groupSizes.Sum() })
	sizeAt := func(q float64) any {
		_, hi, _ := l.groupSizes.Quantile(q)
		return hi
	}
	locked("group_commit.size_p50", func() any { return sizeAt(0.50) })
	locked("group_commit.size_p99", func() any { return sizeAt(0.99) })
}

// rollOverLocked seals the active segment — footer, fsync, close — and
// starts the next one. Callers hold l.mu.
func (l *Ledger) rollOverLocked() error {
	footer := appendFooter(nil, l.segRecs, uint64(l.segSize)-uint64(len(segMagic)), l.chain)
	if _, err := l.f.Write(footer); err != nil {
		return fmt.Errorf("ledger: seal segment %d: %w", l.segIndex, err)
	}
	l.segSize += int64(len(footer))
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("ledger: seal sync: %w", err)
	}
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("ledger: seal close: %w", err)
	}
	l.sealedSegs++
	l.sealedBytes += l.segSize
	l.rolls++
	if err := l.createSegment(l.segIndex + 1); err != nil {
		return err
	}
	syncDir(l.dir)
	return nil
}

// Sync fsyncs the active segment.
func (l *Ledger) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("ledger: sync: %w", err)
	}
	return nil
}

// Close fsyncs and closes the active segment. It is idempotent.
func (l *Ledger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return errors.Join(l.f.Sync(), l.f.Close())
}

// sealForSnapshot seals the active segment if it holds any records, and
// reports the index of the now-empty active segment plus the total intact
// record count. Aligning the snapshot boundary to a
// segment boundary means tail replay after a snapshot boot starts exactly
// at `segIndex` and never re-decodes snapshotted history. The snapshot
// writer captures this BEFORE scanning store shards: any record accepted
// afterwards lands in segment >= segIndex, which tail replay covers (the
// store's content-hash dedup makes the small scan-window overlap harmless).
func (l *Ledger) sealForSnapshot() (segIndex uint64, records uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, 0, ErrClosed
	}
	if l.poisoned != nil {
		return 0, 0, l.poisoned
	}
	if l.segRecs > 0 {
		if err := l.rollOverLocked(); err != nil {
			return 0, 0, err
		}
	}
	return l.segIndex, l.records, nil
}
