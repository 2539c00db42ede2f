package ledger

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/metrics"
	"honestplayer/internal/stats"
	"honestplayer/internal/store"
	"honestplayer/internal/trust"
)

// averageOptions is assessorOptions with no behaviour tester and the
// average trust function.
func averageOptions(t testing.TB, shards int, segBytes int64, every uint64) (Options, *core.TwoPhase) {
	return assessorOptions(t, "none", "average", shards, segBytes, every)
}

// assessorOptions returns Options for a ledger and a TwoPhase assessor —
// scheme's tester (none: no phase 1) on a small seeded calibrator, then the
// trust function trustName — whose verdicts storeFingerprint records.
func assessorOptions(t testing.TB, scheme, trustName string, shards int, segBytes int64, every uint64) (Options, *core.TwoPhase) {
	t.Helper()
	cfg := behavior.Config{Calibrator: stats.NewCalibrator(stats.CalibrationConfig{Replicates: 100, Seed: 3}, 0)}
	var (
		tester behavior.Tester
		err    error
	)
	switch scheme {
	case "none":
	case "single":
		tester, err = behavior.NewSingle(cfg)
	case "multi":
		tester, err = behavior.NewMulti(cfg)
	case "collusion":
		tester, err = behavior.NewCollusion(cfg)
	case "collusion-multi":
		tester, err = behavior.NewCollusionMulti(cfg)
	default:
		t.Fatalf("unknown scheme %q", scheme)
	}
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := trust.NewWeighted(0.5)
	if err != nil {
		t.Fatal(err)
	}
	fns := map[string]trust.Func{"average": trust.Average{}, "weighted": weighted, "beta": trust.Beta{}}
	tp, err := core.NewTwoPhase(tester, fns[trustName])
	if err != nil {
		t.Fatal(err)
	}
	return Options{Shards: shards, SegmentBytes: segBytes, SnapshotEvery: every}, tp
}

// forEachAssessor runs check once per tester mode — none, single, multi,
// collusion, collusion-multi — against each trust function trustd offers.
func forEachAssessor(t *testing.T, check func(t *testing.T, scheme, trustName string)) {
	for _, scheme := range []string{"none", "single", "multi", "collusion", "collusion-multi"} {
		for _, trustName := range []string{"average", "weighted", "beta"} {
			t.Run(scheme+"-"+trustName, func(t *testing.T) { check(t, scheme, trustName) })
		}
	}
}

// workload appends n records across several servers and clients. Server
// "sa" fails the last three of every ten transactions, a period the single
// and multi tests flag; the others fail about one in ten at random, as an
// honest server does, so the trust functions decide their verdicts.
func workload(t *testing.T, ps *PersistentStore, n, offset int) {
	t.Helper()
	for i := offset; i < offset+n; i++ {
		f := feedback.Feedback{
			Server: feedback.EntityID([]byte{'s', byte('a' + i%7)}),
			Client: feedback.EntityID([]byte{'c', byte('a' + i%11)}),
			Rating: feedback.Positive,
			Time:   rec("x", true, int64(i+1)).Time,
		}
		x := uint64(i+1) * 0x9E3779B97F4A7C15 // splitmix64's mix of i
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		if i%7 == 0 && i/7%10 >= 7 || i%7 != 0 && (x^x>>27)%10 == 0 {
			f.Rating = feedback.Negative
		}
		if ok, err := ps.Add(f); !ok || err != nil {
			t.Fatalf("Add %d: %v %v", i, ok, err)
		}
	}
}

// storeFingerprint captures everything that defines a store's logical state:
// per-server records, versions, checksums, and (when an assessor is given)
// the assessment of each server's history.
func storeFingerprint(t *testing.T, st *store.Store, tp *core.TwoPhase) map[string]any {
	t.Helper()
	fp := map[string]any{}
	servers := st.Servers()
	sort.Slice(servers, func(i, j int) bool { return servers[i] < servers[j] })
	for _, srv := range servers {
		key := string(srv)
		fp[key+"/records"] = st.Records(srv)
		fp[key+"/version"] = st.Version(srv)
		fp[key+"/checksum"] = st.ServerChecksum(srv)
		if tp != nil {
			h, err := st.History(srv)
			if err != nil {
				t.Fatal(err)
			}
			if fp[key+"/assessment"], err = tp.Assess(h); err != nil {
				t.Fatalf("assess %q: %v", srv, err)
			}
		}
	}
	fp["len"] = st.Len()
	return fp
}

// TestSnapshotBootMatchesFullReplay: a node booted from snapshot + tail must
// hold bit-identical store state (records, checksums, versions, and the
// assessments of them) to the store that wrote them, and so must one that replays
// the whole ledger, for every tester mode and trust function.
func TestSnapshotBootMatchesFullReplay(t *testing.T) {
	forEachAssessor(t, checkSnapshotBoot)
}

func checkSnapshotBoot(t *testing.T, scheme, trustName string) {
	dir := filepath.Join(t.TempDir(), "led")
	opts, tp := assessorOptions(t, scheme, trustName, 4, 2048, 0)

	ps, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 300, 0)
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 77, 300) // tail past the snapshot
	want := storeFingerprint(t, ps.Store(), tp)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot 1: snapshot + tail.
	snapBoot, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ledgerMetric(snapBoot, "boot_mode") != "snapshot" {
		t.Fatalf("boot mode = %q, want snapshot", ledgerMetric(snapBoot, "boot_mode"))
	}
	got := storeFingerprint(t, snapBoot.Store(), tp)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("snapshot+tail boot diverges from pre-restart state")
	}
	if err := snapBoot.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot 2: full replay (snapshots removed).
	seqs, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		if err := os.Remove(filepath.Join(dir, snapshotName(seq))); err != nil {
			t.Fatal(err)
		}
	}
	fullBoot, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ledgerMetric(fullBoot, "boot_mode") != "replay" {
		t.Fatalf("boot mode = %q, want replay", ledgerMetric(fullBoot, "boot_mode"))
	}
	got = storeFingerprint(t, fullBoot.Store(), tp)
	if !reflect.DeepEqual(want, got) {
		t.Fatal("full replay diverges from snapshot+tail state")
	}
	if err := fullBoot.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKillDuringSnapshotFallsBack: a crash mid-snapshot leaves either a temp
// file or a corrupt snapshot under the real name; boot must fall back (to an
// older snapshot, then full replay) and still converge to the full-replay
// state.
func TestKillDuringSnapshotFallsBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	opts, tp := averageOptions(t, 2, 4096, 0)
	ps, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 120, 0)
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 60, 120)
	want := storeFingerprint(t, ps.Store(), tp)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash scenario 1: a half-written temp file. Must be ignored entirely.
	if err := os.WriteFile(filepath.Join(dir, snapTmpName), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash scenario 2: a newer snapshot file that is torn (truncated half
	// way). Verification must reject it and use the older good snapshot.
	seqs, err := listSnapshots(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no snapshot: %v %v", seqs, err)
	}
	good, err := os.ReadFile(filepath.Join(dir, snapshotName(seqs[0])))
	if err != nil {
		t.Fatal(err)
	}
	torn := good[:len(good)/2]
	if err := os.WriteFile(filepath.Join(dir, snapshotName(seqs[0]+1)), torn, 0o644); err != nil {
		t.Fatal(err)
	}

	boot, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mode, snap := ledgerMetric(boot, "boot_mode"), ledgerMetric(boot, "boot_snapshot"); mode != "snapshot" || snap != seqs[0] {
		t.Fatalf("boot = %q snapshot %v, want older snapshot %d", mode, snap, seqs[0])
	}
	if got := storeFingerprint(t, boot.Store(), tp); !reflect.DeepEqual(want, got) {
		t.Fatal("fallback boot diverges from true state")
	}
	// Nothing else would ever remove the dead snapshot's temp file.
	if _, err := os.Stat(filepath.Join(dir, snapTmpName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file survived the reopen: %v", err)
	}
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the older snapshot too: boot must fall all the way back to a
	// full replay and still match.
	if err := os.WriteFile(filepath.Join(dir, snapshotName(seqs[0])), torn, 0o644); err != nil {
		t.Fatal(err)
	}
	boot2, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ledgerMetric(boot2, "boot_mode") != "replay" {
		t.Fatalf("boot mode = %q, want replay", ledgerMetric(boot2, "boot_mode"))
	}
	if got := storeFingerprint(t, boot2.Store(), tp); !reflect.DeepEqual(want, got) {
		t.Fatal("full-replay fallback diverges from true state")
	}
	if err := boot2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPublishFailureLeavesNoTemp: a snapshot that is fully written
// but cannot be renamed into place removes its temp file, like every earlier
// failure does.
func TestSnapshotPublishFailureLeavesNoTemp(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	ps, err := OpenStoreOptions(context.Background(), dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	workload(t, ps, 40, 0)
	// A non-empty directory under the next snapshot's name: rename fails.
	if err := os.MkdirAll(filepath.Join(dir, snapshotName(1), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.Snapshot(); err == nil {
		t.Fatal("snapshot published over a directory")
	}
	if _, err := os.Stat(filepath.Join(dir, snapTmpName)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file survived the failed publish: %v", err)
	}
	if failed, size := ledgerMetric(ps, "snapshots_failed"), ledgerMetric(ps, "snapshot_bytes"); failed != uint64(1) || size != uint64(0) {
		t.Fatalf("snapshots_failed %v, snapshot_bytes %v after a failed publish", failed, size)
	}
}

// v1Snapshot encodes hists in the retired version-1 layout — per record 8 B
// big-endian nanos, 1 B rating and a length-prefixed client — which nothing
// outside this test can read or write any more.
func v1Snapshot(seq, covered uint64, hists ...*feedback.History) []byte {
	buf := append([]byte(nil), snapMagic[:]...)
	for _, v := range []uint64{1, seq, covered, 0} {
		buf = binary.AppendUvarint(buf, v)
	}
	for _, h := range hists {
		buf = binary.AppendUvarint(buf, uint64(len(h.Server())))
		buf = append(buf, h.Server()...)
		buf = binary.AppendUvarint(buf, uint64(h.Len()))
		for i := 0; i < h.Len(); i++ {
			buf = binary.BigEndian.AppendUint64(buf, uint64(h.NanosAt(i)))
			buf = append(buf, byte(h.RatingAt(i)))
			buf = binary.AppendUvarint(buf, uint64(len(h.ClientAt(i))))
			buf = append(buf, h.ClientAt(i)...)
		}
		buf = binary.AppendUvarint(buf, 0) // no accumulator state
	}
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return append(buf, snapEnd...)
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

// v3Snapshot encodes hists in the retired version-3 layout: each section's
// columns followed by a length-prefixed accumulator state, empty here as a
// node without -incremental left it.
func v3Snapshot(seq, covered uint64, hists ...*feedback.History) []byte {
	buf := append([]byte(nil), snapMagic[:]...)
	for _, v := range []uint64{3, seq, covered, 0} {
		buf = binary.AppendUvarint(buf, v)
	}
	for _, h := range hists {
		buf = binary.AppendUvarint(buf, uint64(len(h.Server())))
		buf = append(buf, h.Server()...)
		buf = h.AppendColumns(buf)
		buf = binary.AppendUvarint(buf, 0)
	}
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return append(buf, snapEnd...)
}

// TestSnapshotV1FallsBackToReplay: the first boot after the upgrade finds a
// version-1 snapshot. It is not decoded: ledger-info lists it as unsupported,
// boot replays the segments to the same state, and the next snapshot is
// the current version, from which the boot after that starts.
func TestSnapshotV1FallsBackToReplay(t *testing.T) {
	checkOldSnapshotFallsBack(t, 1, v1Snapshot)
}

// TestSnapshotV3FallsBackToReplay is TestSnapshotV1FallsBackToReplay for the
// version that carried accumulator state beside each section's columns.
func TestSnapshotV3FallsBackToReplay(t *testing.T) {
	checkOldSnapshotFallsBack(t, 3, v3Snapshot)
}

// checkOldSnapshotFallsBack replaces the snapshot a multi-testing node wrote
// with encode's rendering of the same histories in the older version.
func checkOldSnapshotFallsBack(t *testing.T, version uint64, encode func(seq, covered uint64, hists ...*feedback.History) []byte) {
	dir := filepath.Join(t.TempDir(), "led")
	opts, tp := assessorOptions(t, "multi", "average", 4, 2048, 0)
	ps, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 300, 0)
	seq, err := ps.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var hists []*feedback.History
	for _, srv := range ps.Store().Servers() {
		h, err := ps.Store().History(srv)
		if err != nil {
			t.Fatal(err)
		}
		hists = append(hists, h)
	}
	workload(t, ps, 77, 300) // tail past the snapshot
	want := storeFingerprint(t, ps.Store(), tp)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, snapshotName(seq))
	sd, err := loadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, encode(seq, sd.covered, hists...), 0o644); err != nil {
		t.Fatal(err)
	}

	info, err := Inspect(dir)
	if err != nil {
		t.Fatalf("ledger-info over a version-%d snapshot: %v", version, err)
	}
	if si := info.Snapshots[0]; si.Version != version || si.Valid || !strings.Contains(si.Error, fmt.Sprintf("unsupported version %d", version)) {
		t.Fatalf("version-%d snapshot listed as %+v", version, si)
	}

	boot, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if mode := ledgerMetric(boot, "boot_mode"); mode != "replay" {
		t.Fatalf("boot mode over a version-%d snapshot = %q, want replay", version, mode)
	}
	if got := storeFingerprint(t, boot.Store(), tp); !reflect.DeepEqual(want, got) {
		t.Fatalf("replay past a version-%d snapshot diverges from the pre-restart state", version)
	}
	next, err := boot.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, snapshotName(next)))
	if err != nil {
		t.Fatal(err)
	}
	if v := snapshotVersion(data); v != snapVersion {
		t.Fatalf("snapshot written after the upgrade has version %d, want %d", v, snapVersion)
	}
	again, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if mode, snap := ledgerMetric(again, "boot_mode"), ledgerMetric(again, "boot_snapshot"); mode != "snapshot" || snap != next {
		t.Fatalf("second boot = %q from snapshot %v, want snapshot %d", mode, snap, next)
	}
	if got := storeFingerprint(t, again.Store(), tp); !reflect.DeepEqual(want, got) {
		t.Fatal("boot from the current-version snapshot diverges")
	}
}

// TestSnapshotSectionBytesPerRecord pins what a stored record costs in a
// snapshot at the benchmark's shape — 512 servers of 1074 records one second
// apart, from a pool of 100 clients, no accumulator state: at most 3.5 B,
// where version 2's unscaled times took 6.8 B and version 1 15.9 B.
// snapshotImageSHA256 is the digest of TestSnapshotSectionBytesPerRecord's
// snapshot file.
const snapshotImageSHA256 = "75bbc3b85566db1a3e1447bd7bd392f6377e100d4a68347690042d2c8ee6fb7a"

func TestSnapshotSectionBytesPerRecord(t *testing.T) {
	const servers, perServer = 512, 1074
	dir := filepath.Join(t.TempDir(), "led")
	ps, err := OpenStoreOptions(context.Background(), dir, Options{SegmentBytes: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	batch := make([]feedback.Feedback, perServer)
	for s := 0; s < servers; s++ {
		for i := range batch {
			batch[i] = feedback.Feedback{
				Server: feedback.EntityID(fmt.Sprintf("srv-%04d", s)),
				Client: feedback.EntityID(fmt.Sprintf("cli-%d", (i*7919+s*31)%100)),
				Rating: feedback.Rating(1 + (i+s)%2),
				Time:   time.Unix(1_700_000_000+int64(i), 0),
			}
		}
		for i, r := range ps.AddBatch(batch, 1) {
			if !r.Stored || r.Err != nil {
				t.Fatalf("server %d record %d: %+v", s, i, r)
			}
		}
	}
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	si := info.Snapshots[0]
	if !si.Valid || si.Version != snapVersion || si.Records != servers*perServer {
		t.Fatalf("snapshot info: %+v", si)
	}
	if si.SectionBytesPerRecord > 3.5 {
		t.Fatalf("a snapshot section takes %.2f B per record, want at most 3.5", si.SectionBytesPerRecord)
	}
	if got := ledgerMetric(ps, "snapshot_bytes"); got != uint64(si.Size) {
		t.Fatalf("snapshot_bytes counts %v, the file has %d", got, si.Size)
	}
	// The file's bytes, CRC included, are pinned: the writer may change how
	// it writes them, in sections gathered up to snapFlushAt or otherwise,
	// but not what it writes.
	image, err := os.ReadFile(filepath.Join(dir, snapshotName(si.Seq)))
	if err != nil {
		t.Fatal(err)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(image)); sum != snapshotImageSHA256 {
		t.Fatalf("the snapshot's SHA-256 is %s, want %s", sum, snapshotImageSHA256)
	}
	t.Logf("%.2f B per record, %d B file", si.SectionBytesPerRecord, si.Size)
}

// TestKillDuringRollOverStoreState: crash between sealing a segment and
// creating its successor, at the store level: boot replays everything and
// matches a pre-crash fingerprint.
func TestKillDuringRollOverStoreState(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	opts, tp := averageOptions(t, 2, 1024, 0)
	ps, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 150, 0)
	want := storeFingerprint(t, ps.Store(), tp)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate the roll-over crash window: delete the (empty) active segment
	// so the highest-numbered remaining segment is sealed.
	l := &Ledger{dir: dir}
	segs, err := l.listSegments()
	if err != nil || len(segs) < 2 {
		t.Fatalf("need >=2 segments: %v %v", segs, err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(l.segPath(last))
	if err != nil {
		t.Fatal(err)
	}
	if sc, _ := scanSegment(data, nil); sc.records > 0 {
		t.Skip("active segment not empty; crash window needs an empty successor")
	}
	if err := os.Remove(l.segPath(last)); err != nil {
		t.Fatal(err)
	}

	boot, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := storeFingerprint(t, boot.Store(), tp); !reflect.DeepEqual(want, got) {
		t.Fatal("post-roll-over-crash boot diverges")
	}
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestAutomaticSnapshots: SnapshotEvery triggers background snapshots and
// retention keeps only the newest files.
func TestAutomaticSnapshots(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	opts, _ := averageOptions(t, 2, 1<<20, 50)
	ps, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 400, 0)
	if err := ps.Close(); err != nil { // waits for in-flight snapshots
		t.Fatal(err)
	}
	if ps.snapsTaken.Load() == 0 {
		t.Fatal("no automatic snapshot was taken")
	}
	seqs, err := listSnapshots(dir)
	if err != nil || len(seqs) == 0 {
		t.Fatalf("no snapshot files: %v %v", seqs, err)
	}
	if len(seqs) > snapKeep {
		t.Fatalf("retention kept %d snapshots, want <= %d", len(seqs), snapKeep)
	}
}

// TestSnapshotWithoutAccumulators: a store opened with no options but its
// shard count snapshots its histories and boots from them.
func TestSnapshotWithoutAccumulators(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	ps, err := OpenStoreOptions(context.Background(), dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 80, 0)
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := storeFingerprint(t, ps.Store(), nil)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	boot, err := OpenStoreOptions(context.Background(), dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ledgerMetric(boot, "boot_mode") != "snapshot" {
		t.Fatalf("boot mode = %q", ledgerMetric(boot, "boot_mode"))
	}
	if got := storeFingerprint(t, boot.Store(), nil); !reflect.DeepEqual(want, got) {
		t.Fatal("plain snapshot boot diverges")
	}
	if err := boot.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerInfo: Inspect reports segments, snapshots, and verification
// results without disturbing the ledger.
func TestLedgerInfo(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	opts, _ := averageOptions(t, 2, 1024, 0)
	ps, err := OpenStoreOptions(context.Background(), dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 120, 0)
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Segments) < 2 {
		t.Fatalf("info reports %d segments", len(info.Segments))
	}
	if info.Records != 120 {
		t.Fatalf("info.Records = %d, want 120", info.Records)
	}
	for _, seg := range info.Segments {
		// The workload appends one record per commit group.
		if seg.Blocks != seg.Records {
			t.Fatalf("segment info: %+v", seg)
		}
		if want := float64(seg.Size) / float64(seg.Records); seg.Records > 0 && seg.BytesPerRecord != want {
			t.Fatalf("segment %d: %.2f bytes per record, want %.2f", seg.Index, seg.BytesPerRecord, want)
		}
	}
	if len(info.Snapshots) != 1 || !info.Snapshots[0].Valid {
		t.Fatalf("snapshot info: %+v", info.Snapshots)
	}
	if si := info.Snapshots[0]; si.Version != snapVersion || si.Records != 120 || si.SectionBytesPerRecord <= 0 {
		t.Fatalf("snapshot info: %+v", si)
	}
}

// TestSnapshotBootCountsLikeReplay: ledger.records and ledger.segments are
// exact — a boot that skips the segments a snapshot covers reports what a
// full replay of the same directory reports.
func TestSnapshotBootCountsLikeReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	ps, err := OpenStoreOptions(context.Background(), dir, Options{Shards: 2, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 150, 0)
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}
	workload(t, ps, 40, 150)
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	counts := func(mode string) [2]any {
		t.Helper()
		boot, err := OpenStoreOptions(context.Background(), dir, Options{Shards: 2, SegmentBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		defer boot.Close()
		if got := ledgerMetric(boot, "boot_mode"); got != mode {
			t.Fatalf("boot mode %q, want %q", got, mode)
		}
		return [2]any{ledgerMetric(boot, "records"), ledgerMetric(boot, "segments")}
	}
	fromSnapshot := counts("snapshot")
	seqs, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		if err := os.Remove(filepath.Join(dir, snapshotName(seq))); err != nil {
			t.Fatal(err)
		}
	}
	if replayed := counts("replay"); fromSnapshot != replayed || replayed[0] != uint64(190) {
		t.Fatalf("snapshot boot counts (records, segments) %v, full replay %v, want 190 records", fromSnapshot, replayed)
	}
}

// ledgerMetric reads one key of ps's ledger block, as /metricz serves it.
func ledgerMetric(ps *PersistentStore, key string) any {
	reg := metrics.New()
	ps.RegisterMetrics(reg)
	return reg.Value("ledger." + key)
}
