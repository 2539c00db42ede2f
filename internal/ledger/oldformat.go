package ledger

// Older on-disk formats (ADR 0015). A node opens current-format segment
// directories only, and refuses what earlier revisions wrote before it
// touches a byte:
//
//   - v2 segments (header magic '2'): v3's blocks with a time column that
//     carries no scale;
//   - v1 segments (header magic '1'): one framed row per record;
//   - JSON lines (no header; a first byte that is not 0xB5): the first
//     durable revision's single-file ledger, and the segment 1 it became
//     when a segmented revision opened it.
//
// This revision reads none of them. docs/PERSISTENCE.md's "Upgrading an
// older ledger" names the earlier build whose trustctl ledger-migrate
// rewrites one as a current-format directory.

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrOldFormat reports a ledger path in a format this revision does not
// open: a single-file ledger, a leftover of its interrupted upgrade, or a
// directory holding a segment an earlier revision wrote.
var ErrOldFormat = errors.New(`ledger: older on-disk format (see "Upgrading an older ledger" in docs/PERSISTENCE.md)`)

var (
	segMagicV2 = [8]byte{0xB5, 'H', 'P', 'S', 'E', 'G', '2', 0x00}
	segMagicV1 = [8]byte{0xB5, 'H', 'P', 'S', 'E', 'G', '1', 0x00}
)

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
// path is not a directory of current-format segments: a regular file (a
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
