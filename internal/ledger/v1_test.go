package ledger

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"honestplayer/internal/feedback"
)

// appendRowV1 is the v1 segment writer, which ADR 0008 deleted from the
// package: one record framed alone — uvarint length, feedback.AppendBinary
// payload, CRC32-C — the chain running over the payloads. It lives on here so
// tests can build the directories an upgraded node finds.
func appendRowV1(tb testing.TB, buf []byte, f feedback.Feedback, chain uint32) ([]byte, uint32) {
	tb.Helper()
	payload, err := feedback.AppendBinary(nil, f)
	if err != nil {
		tb.Fatal(err)
	}
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return buf, crc32.Update(chain, castagnoli, payload)
}

// v1Segment is a whole v1 segment file holding recs, with or without footer.
func v1Segment(tb testing.TB, recs []feedback.Feedback, sealed bool) []byte {
	tb.Helper()
	buf := append([]byte(nil), segMagicV1[:]...)
	var chain uint32
	for _, r := range recs {
		buf, chain = appendRowV1(tb, buf, r, chain)
	}
	if sealed {
		buf = appendFooter(buf, uint64(len(recs)), uint64(len(buf)-len(segMagicV1)), chain)
	}
	return buf
}

// segmentFile is a whole current-format segment file, one block per group.
func segmentFile(tb testing.TB, groups [][]feedback.Feedback, sealed bool) []byte {
	tb.Helper()
	return blockSegment(tb, segMagic, feedback.BatchDicts{}, groups, sealed)
}

// blockSegment is a whole segment file of blocks under the given header,
// encoded against dict as it starts.
func blockSegment(tb testing.TB, magic [8]byte, dict feedback.BatchDicts, groups [][]feedback.Feedback, sealed bool) []byte {
	tb.Helper()
	buf := append([]byte(nil), magic[:]...)
	var (
		chain uint32
		n     uint64
	)
	for _, g := range groups {
		b, errs := feedback.Pack(g)
		if errs != nil {
			tb.Fatal(errs)
		}
		buf = appendBlock(buf, []*feedback.Batch{b}, &dict)
		chain = crc32.Update(chain, castagnoli, buf[len(buf)-4:])
		n += uint64(len(g))
	}
	if sealed {
		buf = appendFooter(buf, n, uint64(len(buf)-len(segMagic)), chain)
	}
	return buf
}

// stream is a deterministic record stream over a few servers and clients.
func stream(n int) []feedback.Feedback {
	recs := make([]feedback.Feedback, n)
	for i := range recs {
		recs[i] = feedback.Feedback{
			Time:   time.Unix(int64(1000+i/3), int64(i%5)).UTC(),
			Server: feedback.EntityID(fmt.Sprintf("srv-%d", i%7)),
			Client: feedback.EntityID(fmt.Sprintf("cli-%d", (i*5+1)%11)),
			Rating: feedback.Rating(1 + i%4%2),
		}
	}
	return recs
}

// TestV1DirectoryUpgrades: a directory as the v1 revisions left it — sealed
// v1 segments and an unsealed v1 tail with a torn last row — migrates to a
// ledger of every intact record in one current-format segment; the torn
// bytes are the only ones left behind.
func TestV1DirectoryUpgrades(t *testing.T) {
	recs := stream(100)
	dir := filepath.Join(t.TempDir(), "led")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	tail := v1Segment(t, recs[80:], false)
	torn, _ := appendRowV1(t, nil, recs[0], 0)
	tail = append(tail, torn[:len(torn)-5]...)
	for i, data := range [][]byte{v1Segment(t, recs[:40], true), v1Segment(t, recs[40:80], true), tail} {
		writeFile(t, dir, segmentName(uint64(i+1)), data)
	}
	m := migrateAndCheck(t, dir, recs)
	if want := (Migration{Segments: 3, Records: 100, DroppedBytes: int64(len(torn) - 5)}); m != want {
		t.Fatalf("migration %+v, want %+v", m, want)
	}
}

// TestV1HeaderOnlyTailBecomesCurrent: a v1 segment that never took a record
// migrates to an empty current-format ledger that takes appends.
func TestV1HeaderOnlyTailBecomesCurrent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, dir, segmentName(1), segMagicV1[:])
	migrateAndCheck(t, dir, nil)
}

// TestCorruptV1SegmentRetires: corruption inside a sealed v1 segment keeps
// its intact rows and drops what came after — the later segment too — as
// replay always has.
func TestCorruptV1SegmentRetires(t *testing.T) {
	recs := stream(60)
	dir := filepath.Join(t.TempDir(), "led")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	victim := v1Segment(t, recs[:40], true)
	victim[len(victim)/2] ^= 0xFF
	kept, _ := scanAny(victim, nil)
	if kept.sealed || kept.records == 0 || kept.records >= 40 {
		t.Fatalf("fixture: corruption left %d intact records, sealed %v", kept.records, kept.sealed)
	}
	writeFile(t, dir, segmentName(1), victim)
	writeFile(t, dir, segmentName(2), v1Segment(t, recs[40:], false))
	if m := migrateAndCheck(t, dir, recs[:kept.records]); m.Segments != 1 || m.Skipped != 1 || m.DroppedBytes != kept.truncated {
		t.Fatalf("migration %+v, want 1 segment read, %d bytes dropped, 1 skipped", m, kept.truncated)
	}
}
