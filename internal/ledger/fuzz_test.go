package ledger

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"honestplayer/internal/feedback"
)

// FuzzOpenReplay ensures replay never panics or errors on arbitrary file
// contents — corruption must degrade to a shorter replayed prefix.
func FuzzOpenReplay(f *testing.F) {
	f.Add([]byte(`{"time":"2020-01-01T00:00:00Z","server":"s","client":"c","rating":2}` + "\n"))
	f.Add([]byte("garbage\n"))
	f.Add([]byte{})
	for _, seed := range segmentSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(path)
		if err != nil {
			t.Fatalf("replay errored on arbitrary contents: %v", err)
		}
		for _, r := range recs {
			if err := r.Validate(); err != nil {
				t.Fatalf("replayed invalid record: %v", err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
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

// segmentSeeds are well-formed segments of every binary layout — v3, v2 and
// v1 — their sealed variants, torn and garbled mutants, and mixes of the two
// block layouts: a v2 header over v3 blocks, a v3 header over v2 blocks, a
// v2 segment whose tail blocks are v3's.
func segmentSeeds(tb testing.TB) [][]byte {
	groups := [][]feedback.Feedback{
		{seedRecord(0, "c"), seedRecord(1, "d")},
		{seedRecord(2, "c")},
		{seedRecord(3, "e"), seedRecord(4, "d"), seedRecord(5, "c")},
	}
	seed := segmentFile(tb, groups, false)
	seedV2 := v2Segment(tb, groups, false)
	empty := append(append([]byte(nil), segMagic[:]...), 1, 0) // a batch of no records under a good checksum
	rows := []feedback.Feedback{seedRecord(0, "c"), seedRecord(1, "c")}
	swap := func(data []byte, magic [8]byte) []byte {
		return append(append([]byte(nil), magic[:]...), data[len(magic):]...)
	}
	v3Tail := segmentFile(tb, append(groups[:1:1], groups...), false)
	return [][]byte{
		seed,
		segmentFile(tb, groups, true),
		seed[:len(seed)-3],
		segmentFile(tb, [][]feedback.Feedback{groups[0], groups[0]}, false), // the second block re-introduces nothing
		binary.LittleEndian.AppendUint32(empty, crc32.Checksum([]byte{0}, castagnoli)),
		seedV2,
		v2Segment(tb, groups, true),
		seedV2[:len(seedV2)-3],
		swap(seed, segMagicV2),
		swap(seedV2, segMagic),
		append(v2Segment(tb, groups[:1], false), v3Tail[len(segmentFile(tb, groups[:1], false)):]...),
		v1Segment(tb, rows, false),
		v1Segment(tb, rows, true),
		{},
		segMagic[:],
		segMagicV2[:],
	}
}

// FuzzSegmentReplay feeds arbitrary bytes through the segment scanner —
// blocks, v1 rows and JSON lines alike — both directly and as a segment file
// booted through Open. The contract: corruption degrades to a shorter intact
// prefix — it never panics, never errors, and never yields an invalid
// record — and the dictionaries a scan hands the writer are the intact
// prefix's, so what is appended after such a boot replays beside it.
func FuzzSegmentReplay(f *testing.F) {
	for _, seed := range segmentSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var emitted uint64
		sc, err := scanSegment(data, func(batch []feedback.Feedback) error {
			for _, r := range batch {
				if verr := r.Validate(); verr != nil {
					t.Fatalf("scan emitted invalid record: %v", verr)
				}
			}
			emitted += uint64(len(batch))
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
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, recs, err := Open(dir)
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
	// clients, equal times and accumulator state, then an empty store; and
	// the two versions before, which no longer decode.
	snapshot := func(hists ...*feedback.History) []byte {
		dir := f.TempDir()
		sw, err := beginSnapshot(dir, 1, 1, 2)
		if err != nil {
			f.Fatal(err)
		}
		for _, h := range hists {
			if err := sw.server(h, []byte{1, 2, 3}); err != nil {
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
		for _, srv := range sd.servers {
			r, ok := sd.sections[string(srv.hist.Server())]
			if !ok || r.off <= 0 || r.end <= r.off || r.end > int64(len(data)) {
				t.Fatalf("section of %q indexed at %+v in %d bytes", srv.hist.Server(), r, len(data))
			}
			for _, r := range srv.hist.Records() {
				if verr := r.Validate(); verr != nil {
					t.Fatalf("accepted snapshot holds invalid record: %v", verr)
				}
			}
		}
	})
}
