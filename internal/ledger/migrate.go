package ledger

// Older on-disk formats, and the one-shot rewrite out of them (ADR 0015).
// A node opens current-format segment directories only; this file is the
// only code that still knows the layouts earlier revisions wrote:
//
//   - v2 segments (header magic '2', PRs 28–33): segment.go's blocks, footer
//     and chain, with a time column that carries no scale — the batch codec
//     reads it when the scan's dictionaries are marked Unscaled (ADR 0014);
//   - v1 segments (header magic '1', PRs 8–27): one framed row per record,
//
//     record:  uvarint payload length
//     payload        — feedback.AppendBinary encoding
//     crc32c         — 4 bytes little-endian, over the payload
//     footer:  as in segment.go, the chain running over the payloads
//
//   - JSON lines (no header; a first byte that is not 0xB5): one
//     wire-compatible record per line, PR 7's single-file ledger and the
//     segment 1 it became when opened by PRs 8–34.
//
// openLedger and Inspect refuse a path holding any of these with
// ErrOldFormat before they touch a byte; Migrate, behind trustctl
// ledger-migrate, replays it into a fresh directory.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"honestplayer/internal/feedback"
)

// ErrOldFormat reports a ledger path in a format this revision does not
// open: a single-file ledger, a leftover of its interrupted upgrade, or a
// directory holding a segment an earlier revision wrote.
var ErrOldFormat = errors.New("ledger: older on-disk format (rewrite it with trustctl ledger-migrate -from OLD -to NEW)")

var (
	segMagicV2 = [8]byte{0xB5, 'H', 'P', 'S', 'E', 'G', '2', 0x00}
	segMagicV1 = [8]byte{0xB5, 'H', 'P', 'S', 'E', 'G', '1', 0x00}
)

// maxRowLen is the ceiling of feedback.AppendBinary's output.
const maxRowLen = 8 + 1 + 2 + 1024 + 2 + 1024

// oldKind names the older layout a segment's first bytes announce, or ""
// for the current one — and for a header too short to tell, behind which
// no writer ever left a record.
func oldKind(head []byte) string {
	switch {
	case len(head) > 0 && head[0] != segMagic[0]:
		return "JSON-lines"
	case len(head) < len(segMagic):
		return ""
	case [8]byte(head[:8]) == segMagicV2:
		return "v2"
	case [8]byte(head[:8]) == segMagicV1:
		return "v1"
	}
	return ""
}

// checkCurrent returns an ErrOldFormat error, having changed nothing, when
// path is not a directory of current-format segments: a regular file (PR 7's
// single-file ledger), a directory beside a <path>.migrating file (that file,
// set aside by an upgrade that never finished), or a directory holding an
// older segment. A path that does not exist passes; it becomes a new ledger.
func checkCurrent(path string) error {
	if _, err := os.Lstat(path + ".migrating"); err == nil {
		return fmt.Errorf("%s.migrating is a single-file ledger an interrupted upgrade set aside: %w", path, ErrOldFormat)
	}
	fi, err := os.Stat(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return nil
	case err != nil:
		return fmt.Errorf("ledger: open %s: %w", path, err)
	case !fi.IsDir():
		return fmt.Errorf("%s is a single-file ledger: %w", path, ErrOldFormat)
	}
	l := &Ledger{dir: path}
	segs, err := l.listSegments()
	if err != nil {
		return err
	}
	for _, idx := range segs {
		f, err := os.Open(l.segPath(idx))
		if err != nil {
			return fmt.Errorf("ledger: read segment %s: %w", l.segPath(idx), err)
		}
		var head [len(segMagic)]byte
		n, err := io.ReadFull(f, head[:])
		_ = f.Close() // read-only
		if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("ledger: read segment %s: %w", l.segPath(idx), err)
		}
		if kind := oldKind(head[:n]); kind != "" {
			return fmt.Errorf("%s is a %s segment: %w", l.segPath(idx), kind, ErrOldFormat)
		}
	}
	return nil
}

// Migration is what Migrate carried over.
type Migration struct {
	Segments int    // source segments read
	Records  uint64 // records appended to the new ledger
	// DroppedBytes are the source bytes that failed verification, and
	// Skipped the segments after a corrupt one, which were not read: what
	// replay has always left out.
	DroppedBytes int64
	Skipped      int
}

// Migrate rewrites the ledger at from — a directory whose segments are in any
// layout this package has written, or a single JSON-lines file — as a new
// current-format ledger at to, which must not exist. It scans the source's
// segments in log order and appends every batch of intact records they yield
// to the new ledger, stopping after the first segment that fails
// verification, as replay always has. It copies no snapshot, so the first
// boot on to replays it in full. from is only read; on an error, to holds a
// partial ledger to delete before trying again.
func Migrate(from, to string) (Migration, error) {
	var m Migration
	if _, err := os.Lstat(from + ".migrating"); err == nil {
		return m, fmt.Errorf("ledger: migrate: %s.migrating holds the records an interrupted upgrade set aside; migrate that file", from)
	}
	fi, err := os.Stat(from)
	if err != nil {
		return m, fmt.Errorf("ledger: migrate: %w", err)
	}
	paths := []string{from}
	if fi.IsDir() {
		src := &Ledger{dir: from}
		segs, err := src.listSegments()
		if err != nil {
			return m, err
		}
		paths = nil
		for _, idx := range segs {
			paths = append(paths, src.segPath(idx))
		}
	}
	if _, err := os.Lstat(to); err == nil {
		return m, fmt.Errorf("ledger: migrate: %s already exists", to)
	} else if !errors.Is(err, os.ErrNotExist) {
		return m, fmt.Errorf("ledger: migrate: %w", err)
	}
	l, err := openLedger(to, DefaultSegmentBytes)
	if err != nil {
		return m, err
	}
	for i, path := range paths {
		data, err := readSegmentFile(path)
		if err != nil {
			return m, errors.Join(err, l.Close())
		}
		sc, err := scanAny(data, l.commit)
		if err != nil {
			return m, errors.Join(fmt.Errorf("ledger: migrate %s: %w", path, err), l.Close())
		}
		m.Segments++
		m.Records += sc.records
		m.DroppedBytes += sc.truncated
		if sc.truncated > 0 {
			m.Skipped = len(paths) - i - 1
			break
		}
	}
	return m, l.Close()
}

// scanAny is scanSegment for every layout a segment has had: JSON lines, v1
// rows, v2 blocks and the current ones.
func scanAny(data []byte, emit func(*feedback.Batch) error) (segScan, error) {
	s := segScanner{emit: emit}
	var err error
	switch oldKind(data) {
	case "JSON-lines":
		// No footer: not being the last segment is what sealed one.
		if err = s.scanJSON(data); err == nil {
			err = s.flush(1)
		}
		s.size = int64(len(data))
		s.truncated = s.size - s.intact
		return s.segScan, err
	case "v1":
		err = s.scanRows(data)
	case "v2":
		s.dict.Unscaled = true
		err = s.scanBlocks(data)
	default:
		return scanSegment(data, emit)
	}
	return s.finish(data, err)
}

// scanRows walks a v1 segment's records.
func (s *segScanner) scanRows(data []byte) error {
	s.intact = int64(len(segMagicV1))
	for rest := data[s.intact:]; len(rest) > 0; rest = data[s.intact:] {
		plen, n := binary.Uvarint(rest)
		if n <= 0 || plen == 0 || plen > maxRowLen {
			break // a footer, or no record
		}
		if uint64(len(rest)) < uint64(n)+plen+4 {
			break // torn tail
		}
		end := n + int(plen)
		payload := rest[n:end]
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(rest[end:]) {
			break
		}
		f, leftover, err := feedback.DecodeBinary(payload)
		if err != nil || len(leftover) != 0 || s.batch.Append(f) != nil {
			break
		}
		s.records++
		s.chain = crc32.Update(s.chain, castagnoli, payload)
		s.intact += int64(end + 4)
		if err := s.flush(replayBatch); err != nil {
			return err
		}
	}
	return nil
}

// scanJSON walks a JSON-lines segment: records until the first torn or
// corrupt line, blank lines skipped — PR 7's replay semantics exactly.
func (s *segScanner) scanJSON(data []byte) error {
	for int64(len(data)) > s.intact {
		rest := data[s.intact:]
		nl := int64(bytes.IndexByte(rest, '\n'))
		if nl < 0 {
			break // torn final line
		}
		if line := bytes.Trim(rest[:nl], " \t\r"); len(line) != 0 {
			var f feedback.Feedback
			if json.Unmarshal(line, &f) != nil || s.batch.Append(f) != nil {
				break
			}
			s.records++
			if err := s.flush(replayBatch); err != nil {
				return err
			}
		}
		s.intact += nl + 1
	}
	return nil
}
