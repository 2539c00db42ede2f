package ledger

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"honestplayer/internal/feedback"
)

// v2Segment is a whole segment file as the previous revision wrote it: the
// blocks of segmentFile under the v2 magic, their times unscaled.
func v2Segment(tb testing.TB, groups [][]feedback.Feedback, sealed bool) []byte {
	tb.Helper()
	return blockSegment(tb, segMagicV2, feedback.BatchDicts{Unscaled: true}, groups, sealed)
}

// v2Section is a history's snapshot section as version 2 wrote it: the
// column encoding of ADR 0005 with a time column of unscaled differences.
func v2Section(h *feedback.History) []byte {
	var clients []feedback.EntityID
	slot := map[feedback.EntityID]int{}
	slots := make([]int, h.Len())
	for i := range slots {
		c := h.ClientAt(i)
		s, ok := slot[c]
		if !ok {
			s = len(clients)
			slot[c] = s
			clients = append(clients, c)
		}
		slots[i] = s
	}
	buf := binary.AppendUvarint(nil, uint64(h.Len()))
	buf = binary.AppendUvarint(buf, uint64(len(clients)))
	for _, c := range clients {
		buf = binary.AppendUvarint(buf, uint64(len(c)))
		buf = append(buf, c...)
	}
	var prev int64
	for i := 0; i < h.Len(); i++ {
		buf = binary.AppendVarint(buf, h.NanosAt(i)-prev)
		prev = h.NanosAt(i)
	}
	for _, s := range slots {
		buf = binary.AppendUvarint(buf, uint64(s))
	}
	good := make([]byte, (h.Len()+7)/8)
	for i := range h.Len() {
		if h.RatingAt(i).Good() {
			good[i/8] |= 1 << (i % 8)
		}
	}
	return append(buf, good...)
}

// v2Snapshot is a whole version-2 snapshot file of hists, none with
// accumulator state.
func v2Snapshot(seq, covered, records uint64, hists ...*feedback.History) []byte {
	buf := append([]byte(nil), snapMagic[:]...)
	for _, v := range []uint64{2, seq, covered, records} {
		buf = binary.AppendUvarint(buf, v)
	}
	for _, h := range hists {
		buf = binary.AppendUvarint(buf, uint64(len(h.Server())))
		buf = append(buf, h.Server()...)
		buf = append(buf, v2Section(h)...)
		buf = binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return append(buf, snapEnd...)
}

// TestV2DirectoryUpgrades: a directory as the previous revision left it — a
// sealed v2 segment, an active v2 segment and a version-2 snapshot covering
// the first — is refused, and migrates to a ledger that boots by replay to
// the store its records make, takes appends, writes a current-version
// snapshot and boots from it after that.
func TestV2DirectoryUpgrades(t *testing.T) {
	recs := stream(300)
	sealed, active := groupsOf(recs[:200]), groupsOf(recs[200:])
	root := t.TempDir()
	dir, ref, migrated := filepath.Join(root, "led"), filepath.Join(root, "ref"), filepath.Join(root, "new")
	for _, d := range []string{dir, ref} {
		if err := os.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, dir, segmentName(1), v2Segment(t, sealed, true))
	writeFile(t, dir, segmentName(2), v2Segment(t, active, false))
	// The reference holds the same records as this revision writes them.
	writeFile(t, ref, segmentName(1), segmentFile(t, sealed, true))
	writeFile(t, ref, segmentName(2), segmentFile(t, active, false))
	opts := Options{Shards: 2}
	refStore, err := OpenStoreOptions(context.Background(), ref, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := storeFingerprint(t, refStore.Store(), nil)
	if err := refStore.Close(); err != nil {
		t.Fatal(err)
	}
	// The previous revision's snapshot of the sealed segment's records.
	byServer := map[feedback.EntityID]*feedback.History{}
	var hists []*feedback.History
	for _, r := range recs[:200] {
		h := byServer[r.Server]
		if h == nil {
			h = feedback.NewHistory(r.Server)
			byServer[r.Server] = h
			hists = append(hists, h)
		}
		if err := h.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, dir, snapshotName(1), v2Snapshot(1, 2, 200, hists...))

	if _, err := Inspect(dir); !errors.Is(err, ErrOldFormat) {
		t.Fatalf("Inspect of a v2 directory: %v, want ErrOldFormat", err)
	}
	if m, err := Migrate(dir, migrated); err != nil || m.Records != 300 || m.DroppedBytes != 0 {
		t.Fatalf("migrate: %+v, %v", m, err)
	}
	boot, err := OpenStoreOptions(context.Background(), migrated, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mode := ledgerMetric(boot, "boot_mode"); mode != "replay" {
		t.Fatalf("boot mode of a migrated directory = %q, want replay", mode)
	}
	if got := storeFingerprint(t, boot.Store(), nil); !reflect.DeepEqual(got, want) {
		t.Fatal("the migrated v2 directory boots to a store that differs from its records'")
	}
	more := stream(340)[300:]
	for i, r := range boot.AddBatch(more, 1) {
		if !r.Stored || r.Err != nil {
			t.Fatalf("record %d appended after the upgrade: %+v", i, r)
		}
	}
	next, err := boot.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want = storeFingerprint(t, boot.Store(), nil)
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(migrated)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 340 || info.TruncatedBytes != 0 || !info.Segments[0].Sealed {
		t.Fatalf("the migrated directory inspects as %+v", info)
	}
	if si := info.Snapshots[len(info.Snapshots)-1]; si.Seq != next || si.Version != snapVersion || !si.Valid {
		t.Fatalf("snapshot written after the migration listed as %+v", si)
	}

	again, err := OpenStoreOptions(context.Background(), migrated, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if mode, snap := ledgerMetric(again, "boot_mode"), ledgerMetric(again, "boot_snapshot"); mode != "snapshot" || snap != next {
		t.Fatalf("second boot = %q from snapshot %v, want snapshot %d", mode, snap, next)
	}
	if got := storeFingerprint(t, again.Store(), nil); !reflect.DeepEqual(got, want) {
		t.Fatal("boot from the current-version snapshot diverges")
	}
}
