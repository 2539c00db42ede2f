package ledger

// Store snapshots. A snapshot file freezes the replayed state of the store —
// every server's history, and nothing derived from it (ADR 0017) — so a node
// boots by seeding the store from the snapshot and replaying only the ledger
// tail (segments >= the snapshot's covered segment) instead of the whole log.
//
// File layout (all integers uvarint unless noted):
//
//	magic        8 bytes {0xB6, 'H','P','S','N','A','P','1'}
//	version      uvarint (currently 4; older files are unsupported)
//	seq          uvarint — snapshot sequence number
//	covered      uvarint — tail replay starts at this segment index
//	records      uvarint — ledger record count at capture (informational)
//	servers:     repeated until a zero-length id
//	  id         uvarint length, bytes
//	  history    the server's feedback.History in its column encoding
//	             (feedback.AppendColumns): counts, the client dictionary,
//	             then the scaled time column (ADR 0014), the dictionary-slot
//	             and good-bit columns
//	terminator   uvarint 0
//	crc32c       4 bytes little-endian, over everything above
//	"HPSNPEND"   8 bytes
//
// A section is the serialized form of the resident history (ADR 0005): the
// writer copies columns out, boot and rebuild-on-demand decode columns in,
// and no per-record struct exists on either side. Nothing else about a
// server is stored: the node keeps no per-server assessment state (ADR
// 0016's amendment).
//
// Snapshots are written to snapshot.tmp and renamed into place
// (snapshot.<seq>, zero-padded), so a crash mid-write leaves at worst a
// stale temp file — removed at the next open — and never a half-valid
// snapshot under the real name. Any verification or decode failure makes
// boot fall back to the next older snapshot, and past those to a full
// replay — a bad snapshot can cost boot time, never correctness.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"honestplayer/internal/feedback"
)

// ErrBadSnapshot reports a snapshot file that failed verification.
var ErrBadSnapshot = errors.New("ledger: bad snapshot")

var snapMagic = [8]byte{0xB6, 'H', 'P', 'S', 'N', 'A', 'P', '1'}

const (
	snapEnd     = "HPSNPEND"
	snapVersion = 4
	snapTmpName = "snapshot.tmp"
	// snapKeep is how many verified snapshots are retained; older ones are
	// pruned after each successful write.
	snapKeep = 2
)

// snapshotName formats the file name of snapshot sequence seq.
func snapshotName(seq uint64) string { return fmt.Sprintf("snapshot.%010d", seq) }

// parseSnapshotName extracts the sequence from a snapshot file name.
func parseSnapshotName(name string) (uint64, bool) {
	var seq uint64
	if _, err := fmt.Sscanf(name, "snapshot.%d", &seq); err != nil || seq == 0 {
		return 0, false
	}
	if name != snapshotName(seq) {
		return 0, false
	}
	return seq, true
}

// listSnapshots returns the snapshot sequence numbers present in dir,
// ascending.
func listSnapshots(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ledger: list %s: %w", dir, err)
	}
	var out []uint64
	for _, e := range ents {
		if seq, ok := parseSnapshotName(e.Name()); ok && !e.IsDir() {
			out = append(out, seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// snapFlushAt is what a snapshot gathers in its scratch before writing it
// out: sections are assembled there anyway, so a snapshot needs no buffer
// beside it, and writes of this size cost few calls.
const snapFlushAt = 64 << 10

// snapWriter streams a snapshot to its temp file, maintaining the running
// checksum and byte position (so the caller can index server sections by
// byte range for rebuild-on-demand), and atomically publishes it on finish.
// scratch holds what is not yet written: whole sections, appended in place.
type snapWriter struct {
	dir     string
	f       *os.File
	crc     uint32
	pos     int64
	scratch []byte
}

// beginSnapshot starts writing a snapshot into dir's temp file.
func beginSnapshot(dir string, seq, covered, records uint64) (*snapWriter, error) {
	f, err := os.OpenFile(filepath.Join(dir, snapTmpName), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: snapshot temp: %w", err)
	}
	sw := &snapWriter{dir: dir, f: f}
	buf := append(sw.scratch, snapMagic[:]...)
	buf = binary.AppendUvarint(buf, snapVersion)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, covered)
	buf = binary.AppendUvarint(buf, records)
	if err := sw.add(buf); err != nil {
		sw.abort()
		return nil, err
	}
	return sw, nil
}

// add makes buf, which is scratch with bytes appended, the new scratch: it
// folds the appended bytes into the checksum and position, and writes
// scratch out once it holds snapFlushAt.
func (sw *snapWriter) add(buf []byte) error {
	sw.crc = crc32.Update(sw.crc, castagnoli, buf[len(sw.scratch):])
	sw.pos += int64(len(buf) - len(sw.scratch))
	sw.scratch = buf
	if len(buf) < snapFlushAt {
		return nil
	}
	return sw.flush()
}

// flush writes scratch out and empties it.
func (sw *snapWriter) flush() error {
	_, err := sw.f.Write(sw.scratch)
	sw.scratch = sw.scratch[:0]
	if err != nil {
		return fmt.Errorf("ledger: snapshot write: %w", err)
	}
	return nil
}

// server writes one server's section from an immutable history view.
func (sw *snapWriter) server(hist *feedback.History) error {
	id := hist.Server()
	if len(id) == 0 {
		return fmt.Errorf("%w: empty server id", ErrBadSnapshot)
	}
	buf := binary.AppendUvarint(sw.scratch, uint64(len(id)))
	buf = append(buf, id...)
	return sw.add(hist.AppendColumns(buf))
}

// finish writes the terminator and trailer, fsyncs, and renames the temp
// file to snapshot.<seq>, returning the published file's size. The rename is
// the commit point; on any failure the temp file is removed.
func (sw *snapWriter) finish(seq uint64) (int64, error) {
	err := sw.add(binary.AppendUvarint(sw.scratch, 0))
	if err == nil {
		sw.scratch = append(binary.LittleEndian.AppendUint32(sw.scratch, sw.crc), snapEnd...)
		err = sw.flush()
	}
	if err != nil {
		sw.abort()
		return 0, err
	}
	if err := sw.f.Sync(); err != nil {
		sw.abort()
		return 0, fmt.Errorf("ledger: snapshot sync: %w", err)
	}
	if err := sw.f.Close(); err != nil {
		sw.abort()
		return 0, fmt.Errorf("ledger: snapshot close: %w", err)
	}
	tmp := filepath.Join(sw.dir, snapTmpName)
	if err := os.Rename(tmp, filepath.Join(sw.dir, snapshotName(seq))); err != nil {
		sw.abort()
		return 0, fmt.Errorf("ledger: snapshot publish: %w", err)
	}
	syncDir(sw.dir)
	return sw.pos + 4 + int64(len(snapEnd)), nil
}

// abort closes (again, harmlessly, if finish already had) and removes the
// temp file.
func (sw *snapWriter) abort() {
	_ = sw.f.Close()
	_ = os.Remove(filepath.Join(sw.dir, snapTmpName))
}

// pruneSnapshots removes all but the snapKeep newest snapshot files.
func pruneSnapshots(dir string) {
	seqs, err := listSnapshots(dir)
	if err != nil || len(seqs) <= snapKeep {
		return
	}
	for _, seq := range seqs[:len(seqs)-snapKeep] {
		_ = os.Remove(filepath.Join(dir, snapshotName(seq)))
	}
}

// snapshotData is a fully decoded, checksum-verified snapshot. sections
// indexes each server's byte range within the file, for rebuild-on-demand.
type snapshotData struct {
	seq      uint64
	covered  uint64
	records  uint64
	servers  []*feedback.History
	sections map[string]secRange
}

// loadSnapshot reads and verifies the snapshot at path. Any structural or
// checksum problem returns an error wrapping ErrBadSnapshot; it never
// panics on malformed input.
func loadSnapshot(path string) (*snapshotData, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ledger: read snapshot %s: %w", path, err)
	}
	return decodeSnapshot(data)
}

// snapshotVersion reads the format version of a snapshot image, 0 when the
// image is too damaged to carry one.
func snapshotVersion(data []byte) uint64 {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != string(snapMagic[:]) {
		return 0
	}
	v, n := binary.Uvarint(data[len(snapMagic):])
	if n <= 0 {
		return 0
	}
	return v
}

// decodeSnapshot verifies and decodes a snapshot image.
func decodeSnapshot(data []byte) (*snapshotData, error) {
	trailer := 4 + len(snapEnd)
	if len(data) < len(snapMagic)+trailer {
		return nil, fmt.Errorf("%w: short file", ErrBadSnapshot)
	}
	if string(data[:len(snapMagic)]) != string(snapMagic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	if string(data[len(data)-len(snapEnd):]) != snapEnd {
		return nil, fmt.Errorf("%w: missing end marker", ErrBadSnapshot)
	}
	body := data[:len(data)-trailer]
	wantCRC := binary.LittleEndian.Uint32(data[len(data)-trailer:])
	if crc32.Checksum(body, castagnoli) != wantCRC {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	rest := body[len(snapMagic):]
	version, rest, err := snapUvarint(rest)
	if err != nil {
		return nil, err
	}
	if version != snapVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadSnapshot, version)
	}
	sd := &snapshotData{}
	if sd.seq, rest, err = snapUvarint(rest); err != nil {
		return nil, err
	}
	if sd.covered, rest, err = snapUvarint(rest); err != nil {
		return nil, err
	}
	if sd.records, rest, err = snapUvarint(rest); err != nil {
		return nil, err
	}
	sd.sections = make(map[string]secRange)
	for {
		peek, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad varint", ErrBadSnapshot)
		}
		if peek == 0 {
			rest = rest[n:]
			break
		}
		// Section offsets are relative to the file start; body starts at 0.
		start := int64(len(body) - len(rest))
		hist, remainder, err := decodeServerSection(rest)
		if err != nil {
			return nil, err
		}
		rest = remainder
		id := string(hist.Server())
		if _, dup := sd.sections[id]; dup {
			return nil, fmt.Errorf("%w: duplicate server %q", ErrBadSnapshot, id)
		}
		sd.sections[id] = secRange{off: start, end: int64(len(body) - len(rest))}
		sd.servers = append(sd.servers, hist)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(rest))
	}
	return sd, nil
}

// maxSectionIDLen is a corruption guard on a section's server id, above any
// id a record codec accepts (it was the v1 segment row's ceiling).
const maxSectionIDLen = 2061

// decodeServerSection decodes one server section — its id, then its history
// columns — returning the remainder. It is shared between whole-file decode
// (boot) and by-range section reads (rebuild-on-demand).
func decodeServerSection(rest []byte) (*feedback.History, []byte, error) {
	idLen, rest, err := snapUvarint(rest)
	if err != nil {
		return nil, rest, err
	}
	if idLen == 0 || idLen > maxSectionIDLen || uint64(len(rest)) < idLen {
		return nil, rest, fmt.Errorf("%w: server id overruns file", ErrBadSnapshot)
	}
	id := feedback.EntityID(rest[:idLen])
	hist, rest, err := feedback.DecodeColumns(id, rest[idLen:])
	if err != nil {
		return nil, rest, fmt.Errorf("%w: history of %q: %v", ErrBadSnapshot, id, err)
	}
	return hist, rest, nil
}

// snapUvarint decodes one uvarint, returning the remainder.
func snapUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, b, fmt.Errorf("%w: bad varint", ErrBadSnapshot)
	}
	return v, b[n:], nil
}
