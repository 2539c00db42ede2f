package ledger

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/feedback"
)

// FuzzOpenReplay boots arbitrary bytes as the first of two segments, a valid
// one after it, and as a single-file -ledger path. A regular file and an
// older header are refused with ErrOldFormat, and no byte or name under the
// directory moves — an older segment is never taken for a torn current one
// and truncated. Anything else replays the first segment's intact prefix,
// and the second segment's record only when the first verified whole.
func FuzzOpenReplay(f *testing.F) {
	for _, seed := range segmentSeeds(f) {
		f.Add(seed)
	}
	// The older layouts, down to their headers: checkCurrent reads no more.
	body := segmentFile(f, seedGroups, false)[len(segMagic):]
	for _, magic := range [][8]byte{segMagicV2, segMagicV1} {
		f.Add(magic[:])
		f.Add(append(magic[:], body...))
	}
	f.Add([]byte(`{"time":"2020-01-01T00:00:00Z","server":"s","client":"c","rating":2}` + "\n"))
	tail := segmentFile(f, [][]feedback.Feedback{{seedRecord(20, "z")}}, false)
	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		writeFile(t, root, "single", data)
		if _, _, err := Open(filepath.Join(root, "single")); !errors.Is(err, ErrOldFormat) {
			t.Fatalf("Open of a regular file: %v, want ErrOldFormat", err)
		}
		dir := filepath.Join(root, "led")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, dir, segmentName(1), data)
		writeFile(t, dir, segmentName(2), tail)
		before := treeBytes(t, root)
		l, recs, err := Open(dir)
		if oldKind(data) != "" {
			if !errors.Is(err, ErrOldFormat) || !reflect.DeepEqual(treeBytes(t, root), before) {
				t.Fatalf("an older segment opened (%v) or was changed", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("replay errored on arbitrary contents: %v", err)
		}
		defer func() { _ = l.Close() }()
		sc, _ := scanSegment(data, nil)
		want := sc.records
		if sc.truncated == 0 {
			want++
		}
		if uint64(len(recs)) != want {
			t.Fatalf("replayed %d records, want %d (first segment %+v)", len(recs), want, sc)
		}
		for _, r := range recs {
			if err := r.Validate(); err != nil {
				t.Fatalf("replayed invalid record: %v", err)
			}
		}
	})
}

// seedRecord is record i of the segment seeds: one server, whole seconds.
func seedRecord(i int, client feedback.EntityID) feedback.Feedback {
	return feedback.Feedback{
		Server: "s", Client: client, Rating: feedback.Rating(1 + i%2),
		Time: time.Unix(int64(i+1), 0).UTC(),
	}
}

// seedGroups are the commit groups of the segment seeds.
var seedGroups = [][]feedback.Feedback{
	{seedRecord(0, "c"), seedRecord(1, "d")},
	{seedRecord(2, "c")},
	{seedRecord(3, "e"), seedRecord(4, "d"), seedRecord(5, "c")},
}

// frame is payload framed as a block: uvarint length, payload, CRC32-C.
func frame(payload []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(len(payload)))
	return binary.LittleEndian.AppendUint32(append(b, payload...), crc32.Checksum(payload, castagnoli))
}

// segmentSeeds are current-format segments, unsealed and sealed, and the
// ways each goes wrong: torn, a bad block checksum, a footer that does not
// vouch for the blocks, a non-canonical length or batch under a good
// checksum, blocks repeated, no header, a torn one or one whose first byte
// rotted.
func segmentSeeds(tb testing.TB) [][]byte {
	groups := seedGroups
	seed := segmentFile(tb, groups, false)
	sealed := segmentFile(tb, groups, true)
	sc, _ := scanSegment(seed, nil)
	miscounted := appendFooter(append([]byte(nil), seed...), sc.records+1, uint64(sc.intact)-uint64(len(segMagic)), sc.chain)
	badCRC := append([]byte(nil), seed...)
	badCRC[len(segmentFile(tb, groups[:1], false))+3] ^= 0x40 // inside the second block
	badFooterCRC := append([]byte(nil), sealed...)
	badFooterCRC[len(badFooterCRC)-10] ^= 1
	payload, err := feedback.AppendBatch(nil, groups[0], &feedback.BatchDicts{})
	if err != nil {
		tb.Fatal(err)
	}
	padded := append([]byte(nil), payload...)
	padded[len(padded)-1] |= 0x80 // a good-bit past the records
	longLen := append(append([]byte(nil), segMagic[:]...), byte(len(payload))|0x80, 0)
	longLen = binary.LittleEndian.AppendUint32(append(longLen, payload...), crc32.Checksum(payload, castagnoli))
	return [][]byte{
		seed,
		sealed,
		seed[:len(seed)-3],
		segmentFile(tb, [][]feedback.Feedback{groups[0], groups[0]}, false), // the second block re-introduces nothing
		append(append([]byte(nil), segMagic[:]...), frame([]byte{0})...),    // a batch of no records under a good checksum
		badCRC,
		miscounted,
		badFooterCRC,
		append(append([]byte(nil), sealed...), 0),
		sealed[:len(sealed)-1],
		appendFooter(append([]byte(nil), segMagic[:]...), 0, 0, 0), // sealed with no block
		append(append([]byte(nil), segMagic[:]...), frame(padded)...),
		longLen,
		append(append([]byte(nil), seed...), seed[len(segMagic):]...), // every block again
		append(append([]byte(nil), segMagic[:]...), 0),
		{},
		segMagic[:],
		segMagic[:5],
		append([]byte{segMagic[0]}, "garbage"...),
		append([]byte{'#'}, seed[1:]...), // a first byte that announces JSON lines: refused
	}
}

// FuzzSegmentReplay feeds arbitrary bytes through the segment scanner, both
// directly and as a segment file booted through Open. The contract:
// corruption degrades to a shorter intact prefix — it never panics, never
// errors, and never yields an invalid record — and the dictionaries a scan
// hands the writer are the intact prefix's, so what is appended after such a
// boot replays beside it. Bytes an earlier revision's layout announces are
// refused unread.
func FuzzSegmentReplay(f *testing.F) {
	for _, seed := range segmentSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var emitted uint64
		sc, err := scanSegment(data, func(batch *feedback.Batch) error {
			for _, r := range batch.Records() {
				if verr := r.Validate(); verr != nil {
					t.Fatalf("scan emitted invalid record: %v", verr)
				}
			}
			emitted += uint64(batch.Len())
			return nil
		})
		if err != nil {
			t.Fatalf("scan errored without an emit error: %v", err)
		}
		if emitted != sc.records {
			t.Fatalf("emitted %d but scan reports %d", emitted, sc.records)
		}
		if sc.intact+sc.truncated != sc.size {
			t.Fatalf("intact %d + truncated %d != size %d", sc.intact, sc.truncated, sc.size)
		}
		// The same bytes as a segment file must boot, replaying exactly the
		// intact prefix.
		dir := filepath.Join(t.TempDir(), "led")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeFile(t, dir, segmentName(1), data)
		l, recs, err := Open(dir)
		if oldKind(data) != "" {
			if !errors.Is(err, ErrOldFormat) {
				t.Fatalf("Open of an older segment: %v, want ErrOldFormat", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Open on arbitrary segment: %v", err)
		}
		if uint64(len(recs)) != sc.records {
			t.Fatalf("Open replayed %d, scan found %d", len(recs), sc.records)
		}
		// Whatever survived, the writer resumes after it: an id the prefix
		// introduced and one it did not, appended and read back.
		more := []feedback.Feedback{seedRecord(9, "fresh-client")}
		if len(recs) > 0 {
			more = append(more, recs[0])
		}
		if err := l.AppendBatch(more); err != nil {
			t.Fatalf("append after boot: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, again, err := Open(dir)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		if want := append(recs, more...); !reflect.DeepEqual(again, want) {
			t.Fatalf("reopen replayed %d records, want the %d booted and the %d appended", len(again), len(recs), len(more))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzSnapshotLoad feeds arbitrary bytes through the snapshot decoder: any
// corruption must be rejected with an error — never a panic, never a
// half-decoded result with invalid records.
func FuzzSnapshotLoad(f *testing.F) {
	// Valid current-version snapshots as seeds: two servers with repeated
	// clients and equal times, then an empty store; and the three versions
	// before, which no longer decode.
	snapshot := func(hists ...*feedback.History) []byte {
		dir := f.TempDir()
		sw, err := beginSnapshot(dir, 1, 1, 2)
		if err != nil {
			f.Fatal(err)
		}
		for _, h := range hists {
			if err := sw.server(h); err != nil {
				f.Fatal(err)
			}
		}
		if _, err := sw.finish(1); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, snapshotName(1)))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	s, u := feedback.NewHistory("s"), feedback.NewHistory("u")
	for i, c := range []feedback.EntityID{"c", "d", "c", "e", "d", "c", "c", "d", "e"} {
		_ = s.Append(feedback.Feedback{Server: "s", Client: c, Rating: feedback.Rating(1 + i%2), Time: time.Unix(int64(1+i/2), 0).UTC()})
	}
	_ = u.Append(feedback.Feedback{Server: "u", Client: "c", Rating: feedback.Negative, Time: time.Unix(-5, 7).UTC()})
	valid := snapshot(s, u)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(snapshot())
	f.Add(v1Snapshot(1, 1, s, u))
	f.Add(v2Snapshot(1, 1, 10, s, u))
	f.Add(v3Snapshot(1, 1, s, u))
	f.Add([]byte{})
	f.Add(snapMagic[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		sd, err := decodeSnapshot(data)
		if err != nil {
			return // rejected, as corruption should be
		}
		if len(sd.sections) != len(sd.servers) {
			t.Fatalf("%d sections indexed for %d servers", len(sd.sections), len(sd.servers))
		}
		for _, hist := range sd.servers {
			r, ok := sd.sections[string(hist.Server())]
			if !ok || r.off <= 0 || r.end <= r.off || r.end > int64(len(data)) {
				t.Fatalf("section of %q indexed at %+v in %d bytes", hist.Server(), r, len(data))
			}
			for _, r := range hist.Records() {
				if verr := r.Validate(); verr != nil {
					t.Fatalf("accepted snapshot holds invalid record: %v", verr)
				}
			}
		}
	})
}
