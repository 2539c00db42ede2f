package ledger

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
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
		var err error
		if buf, err = appendBlock(buf, g, &dict); err != nil {
			tb.Fatal(err)
		}
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

// inspectFormats lists a directory's segments as "<format> <state>" and the
// bytes that fail verification.
func inspectFormats(t *testing.T, dir string) ([]string, int64) {
	t.Helper()
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, seg := range info.Segments {
		state := "active"
		if seg.Sealed {
			state = "sealed"
		}
		out = append(out, seg.Format+" "+state)
	}
	return out, info.TruncatedBytes
}

// TestV1DirectoryUpgrades: a directory as the previous revision left it —
// sealed v1 segments and an unsealed v1 tail with a torn last row — opens,
// replays every intact record, seals the v1 tail where it stands, takes
// appends in a v3 segment behind it, and reopens to the same records, twice.
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
		if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(i+1))), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got, bad := inspectFormats(t, dir); !reflect.DeepEqual(got, []string{"v1 sealed", "v1 sealed", "v1 active"}) || bad != int64(len(torn)-5) {
		t.Fatalf("fixture inspects as %v with %d bad bytes", got, bad)
	}

	l, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %d records, want the fixture's %d", len(got), len(recs))
	}
	if l.segIndex != 4 || l.truncatedSegments != 1 || l.truncatedBytes != int64(len(torn)-5) {
		t.Fatalf("active segment %d, %d truncations of %d bytes; want 4, 1, %d",
			l.segIndex, l.truncatedSegments, l.truncatedBytes, len(torn)-5)
	}
	if l.records != 100 || l.sealedSegs != 3 {
		t.Fatalf("counted %d records in %d sealed segments, want 100 in 3", l.records, l.sealedSegs)
	}
	more := stream(130)[100:]
	if err := l.AppendBatch(more[:20]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, bad := inspectFormats(t, dir); !reflect.DeepEqual(got, []string{"v1 sealed", "v1 sealed", "v1 sealed", "v3 active"}) || bad != 0 {
		t.Fatalf("after the upgrade the directory inspects as %v with %d bad bytes", got, bad)
	}

	l, got, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(append([]feedback.Feedback(nil), recs...), more[:20]...); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen replayed %d records, want %d", len(got), len(want))
	}
	if l.segIndex != 4 || l.truncatedSegments != 0 {
		t.Fatalf("reopen: active segment %d, %d truncations", l.segIndex, l.truncatedSegments)
	}
	if err := l.AppendBatch(more[20:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if want := append(append([]feedback.Feedback(nil), recs...), more...); !reflect.DeepEqual(got, want) {
		t.Fatalf("second reopen replayed %d records, want %d", len(got), len(want))
	}
}

// TestV1HeaderOnlyTailBecomesCurrent: a v1 tail that never took a record
// has nothing to keep; it is rewritten in place as the segment appends go
// to, in the current format.
func TestV1HeaderOnlyTailBecomesCurrent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), segMagicV1[:], 0o644); err != nil {
		t.Fatal(err)
	}
	l, got, err := Open(dir)
	if err != nil || len(got) != 0 {
		t.Fatalf("open: %d records, %v", len(got), err)
	}
	if err := l.AppendBatch(stream(5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, bad := inspectFormats(t, dir); !reflect.DeepEqual(got, []string{"v3 active"}) || bad != 0 {
		t.Fatalf("directory inspects as %v with %d bad bytes", got, bad)
	}
}

// TestCorruptV1SegmentRetires: corruption inside a sealed v1 segment keeps
// its intact rows — resealed under a footer of their own — drops what came
// after, and resumes in a v3 segment.
func TestCorruptV1SegmentRetires(t *testing.T) {
	recs := stream(60)
	dir := filepath.Join(t.TempDir(), "led")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	victim := v1Segment(t, recs[:40], true)
	victim[len(victim)/2] ^= 0xFF
	kept, _ := scanSegment(victim, nil)
	if kept.sealed || kept.records == 0 || kept.records >= 40 {
		t.Fatalf("fixture: corruption left %d intact records, sealed %v", kept.records, kept.sealed)
	}
	for i, data := range [][]byte{victim, v1Segment(t, recs[40:], false)} {
		if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(i+1))), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs[:kept.records]) {
		t.Fatalf("replayed %d records, want the %d before the corruption", len(got), kept.records)
	}
	if l.sealedSegs != 1 || l.sealedBytes != kept.intact+footerSize || l.truncatedSegments == 0 {
		t.Fatalf("%d sealed segments of %d bytes, %d truncations", l.sealedSegs, l.sealedBytes, l.truncatedSegments)
	}
	if err := l.AppendBatch(recs[50:]); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, bad := inspectFormats(t, dir); !reflect.DeepEqual(got, []string{"v1 sealed", "v3 active"}) || bad != 0 {
		t.Fatalf("directory inspects as %v with %d bad bytes", got, bad)
	}
	l, got, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if want := append(append([]feedback.Feedback(nil), recs[:kept.records]...), recs[50:]...); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen replayed %d records, want %d", len(got), len(want))
	}
}
