package ledger

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"honestplayer/internal/attack"
	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/stats"
	"honestplayer/internal/store"
	"honestplayer/internal/trust"
)

// TestSegmentBlockGoldenBytes pins the block framing: uvarint length, the
// batch's columns, CRC32-C of the columns; the header before, and a footer
// whose chain runs over the blocks' checksum bytes.
func TestSegmentBlockGoldenBytes(t *testing.T) {
	recs := []feedback.Feedback{
		{Time: time.Unix(0, 100).UTC(), Server: "s1", Client: "c1", Rating: feedback.Positive},
		{Time: time.Unix(0, 103).UTC(), Server: "s1", Client: "c2", Rating: feedback.Negative},
	}
	ids := []byte{
		0, 2, 's', '1', 0, // new "s1", slot 0
		0, 2, 'c', '1', 1, 2, 'c', '2', // new "c1", new "c2"
		0b01, // good
	}
	want := append(append([]byte{
		0xB5, 'H', 'P', 'S', 'E', 'G', '3', 0x00,
		19,               // payload length
		2, 0xc8, 1, 3, 2, // two records; zig-zag 100, scale 3, +3/3
	}, ids...), 0x0f, 0xb7, 0x5b, 0x56) // crc32c of the 19 payload bytes
	got := segmentFile(t, [][]feedback.Feedback{recs}, false)
	if !bytes.Equal(got, want) {
		t.Fatalf("segment bytes moved:\n got %x\nwant %x", got, want)
	}
	// The ledger writes exactly this.
	path := filepath.Join(t.TempDir(), "ledger")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if onDisk, err := os.ReadFile(activeSegPath(t, path)); err != nil || !bytes.Equal(onDisk, want) {
		t.Fatalf("ledger wrote %x (%v), want %x", onDisk, err, want)
	}
}

// segmentFile is a whole current-format segment file, one block per group.
func segmentFile(tb testing.TB, groups [][]feedback.Feedback, sealed bool) []byte {
	tb.Helper()
	buf := append([]byte(nil), segMagic[:]...)
	var (
		dict  feedback.BatchDicts
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

// groupsOf cuts recs into commit groups of 1..9 records.
func groupsOf(recs []feedback.Feedback) [][]feedback.Feedback {
	var groups [][]feedback.Feedback
	for k := 0; len(recs) > 0; k++ {
		n := min(1+k*5%9, len(recs))
		groups = append(groups, recs[:n])
		recs = recs[n:]
	}
	return groups
}

// TestDictionaryAcrossReopen: the dictionaries are the segment's, not the
// process's — a writer that reopens the segment resumes with the ids its
// blocks introduced, so what two processes wrote is byte for byte what one
// would have.
func TestDictionaryAcrossReopen(t *testing.T) {
	recs := stream(120)
	groups := groupsOf(recs)
	path := filepath.Join(t.TempDir(), "ledger")
	for _, g := range groups {
		l, _, err := Open(path) // a process per commit group
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendBatch(g); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	onDisk, err := os.ReadFile(activeSegPath(t, path))
	if err != nil {
		t.Fatal(err)
	}
	if want := segmentFile(t, groups, false); !bytes.Equal(onDisk, want) {
		t.Fatalf("segment written across %d reopens is %d bytes, one writer's is %d", len(groups), len(onDisk), len(want))
	}
	l, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
	if s, c := l.dict.Len(); s != 7 || c != 11 {
		t.Fatalf("resumed dictionaries hold %d servers, %d clients, want 7 and 11", s, c)
	}
}

// TestDictionaryAcrossAdoptTruncated: when a corrupt sealed segment becomes
// the tail again, the writer gets the dictionaries of the blocks that
// survived — ids only the dropped blocks introduced are introduced again.
func TestDictionaryAcrossAdoptTruncated(t *testing.T) {
	// Every group brings clients of its own, so the dropped groups' ids are
	// in no surviving block.
	var groups [][]feedback.Feedback
	for g := 0; g < 40; g++ {
		var recs []feedback.Feedback
		for i := 0; i < 8; i++ {
			recs = append(recs, feedback.Feedback{
				Time:   time.Unix(int64(g*8+i), 0).UTC(),
				Server: feedback.EntityID(fmt.Sprintf("srv-%d", i%3)),
				Client: feedback.EntityID(fmt.Sprintf("g%d-c%d", g, i%4)),
				Rating: feedback.Rating(1 + i%2),
			})
		}
		groups = append(groups, recs)
	}
	path := filepath.Join(t.TempDir(), "ledger")
	open := func() (*Ledger, []feedback.Feedback) {
		l, err := openLedger(path, 1024)
		if err != nil {
			t.Fatal(err)
		}
		var got []feedback.Feedback
		if err := l.replayFrom(context.Background(), 0, func(b *feedback.Batch) error {
			got = append(got, b.Records()...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return l, got
	}
	l, _ := open()
	for _, g := range groups {
		if err := l.AppendBatch(g); err != nil {
			t.Fatal(err)
		}
	}
	if l.sealedSegs < 2 {
		t.Fatalf("fixture rolled over %d times, want at least 2", l.sealedSegs)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	victim := filepath.Join(path, segmentName(1))
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	kept, _ := scanSegment(data, nil)
	if kept.sealed || kept.blocks == 0 || kept.records != 8*kept.blocks {
		t.Fatalf("fixture: %d records in %d intact blocks, sealed %v", kept.records, kept.blocks, kept.sealed)
	}
	survivors := groups[:kept.blocks]

	l, got := open()
	if l.segIndex != 1 || l.truncatedSegments != 1 {
		t.Fatalf("active segment %d after %d truncations, want the adopted 1", l.segIndex, l.truncatedSegments)
	}
	if s, c := l.dict.Len(); s != 3 || c != 4*len(survivors) {
		t.Fatalf("adopted dictionaries hold %d servers, %d clients; the %d surviving blocks introduced 3 and %d",
			s, c, len(survivors), 4*len(survivors))
	}
	// A surviving group's ids and a dropped group's ids, appended together.
	again := append(append([]feedback.Feedback(nil), groups[0]...), groups[len(groups)-1]...)
	if err := l.AppendBatch(again); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	if want := segmentFile(t, append(survivors[:len(survivors):len(survivors)], again), false); !bytes.Equal(onDisk[:len(want)], want) {
		t.Fatal("the adopted segment is not what one writer of the surviving groups would have written")
	}
	l, reread := open()
	defer func() { _ = l.Close() }()
	if want := append(got, again...); !reflect.DeepEqual(reread, want) {
		t.Fatalf("replayed %d records, want the %d that survived and the %d appended", len(reread), len(got), len(again))
	}
}

// TestDictionaryCapSybilStream: a stream in which every record names a new
// client fills the segment's client dictionary to feedback.MaxBatchDict and
// no further — the writer's map stops growing — and round-trips, reopen
// included.
func TestDictionaryCapSybilStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var all []feedback.Feedback
	appendSybils := func(n int) {
		batch := make([]feedback.Feedback, n)
		for i := range batch {
			k := len(all) + i
			batch[i] = feedback.Feedback{
				Time:   time.Unix(int64(k), 0).UTC(),
				Server: "victim",
				Client: feedback.EntityID(fmt.Sprintf("sybil-%d", k)),
				Rating: feedback.Positive,
			}
		}
		if err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		all = append(all, batch...)
	}
	for len(all) < feedback.MaxBatchDict+4000 {
		appendSybils(2000)
	}
	if s, c := l.dict.Len(); s != 1 || c != feedback.MaxBatchDict {
		t.Fatalf("writer dictionaries hold %d servers, %d clients, want 1 and the cap of %d", s, c, feedback.MaxBatchDict)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("replayed %d records, want %d", len(got), len(all))
	}
	if _, c := l.dict.Len(); c != feedback.MaxBatchDict {
		t.Fatalf("reopened writer holds %d clients, want the cap", c)
	}
	appendSybils(100)
	// Clients from before and from past the cap come back.
	back := []feedback.Feedback{all[0], all[feedback.MaxBatchDict+1], all[len(all)-1]}
	for i := range back {
		back[i].Time = back[i].Time.Add(time.Hour)
	}
	if err := l.AppendBatch(back); err != nil {
		t.Fatal(err)
	}
	all = append(all, back...)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if !reflect.DeepEqual(got, all) {
		t.Fatalf("second replay: %d records, want %d", len(got), len(all))
	}
}

// TestBlockScratchNotPinned: one large batch (a Seed, an anti-entropy pull)
// used to leave its encode buffer on the Ledger for the life of the process.
func TestBlockScratchNotPinned(t *testing.T) {
	l, _, err := Open(filepath.Join(t.TempDir(), "ledger"))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	big := make([]feedback.Feedback, 100_000)
	for i := range big {
		big[i] = feedback.Feedback{
			Time:   time.Unix(int64(i), int64(i*7919%1000)).UTC(), // nanoseconds: 5 B a time
			Server: feedback.EntityID(fmt.Sprintf("srv-%d", i%50)),
			Client: feedback.EntityID(fmt.Sprintf("client-%07d", i)),
			Rating: feedback.Positive,
		}
	}
	if err := l.AppendBatch(big); err != nil {
		t.Fatal(err)
	}
	if l.segSize < 2*maxKeptBuf {
		t.Fatalf("fixture: the batch's block is only %d bytes", l.segSize)
	}
	if got := cap(l.buf); got > maxKeptBuf {
		t.Fatalf("after a %d-byte block the ledger keeps a %d-byte buffer", l.segSize, got)
	}
	if err := l.AppendBatch(big[:64]); err != nil {
		t.Fatal(err)
	}
	if got := cap(l.buf); got == 0 || got > 64<<10 {
		t.Fatalf("after a 64-record block the ledger keeps a %d-byte buffer", got)
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestReplayBoundedBySegmentDensity: replay holds segment files and a few
// batches, never a segment's records — at ~4 B a record on disk a decoded
// segment is fifteen times its file.
func TestReplayBoundedBySegmentDensity(t *testing.T) {
	const segments, perSegment, workers = 3, 300_000, 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	dir := filepath.Join(t.TempDir(), "led")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	var segBytes int
	for s := 0; s < segments; s++ {
		var groups [][]feedback.Feedback
		for g := 0; g < perSegment/64; g++ {
			recs := make([]feedback.Feedback, 64)
			for i := range recs {
				k := s*perSegment + g*64 + i
				recs[i] = feedback.Feedback{
					Time:   time.Unix(1_700_000_000+int64(k), 0).UTC(),
					Server: feedback.EntityID(fmt.Sprintf("srv-%03d", k%512)),
					Client: feedback.EntityID(fmt.Sprintf("cli-%d", k*7919%100)),
					Rating: feedback.Rating(1 + k%2),
				}
			}
			groups = append(groups, recs)
		}
		data := segmentFile(t, groups, true)
		segBytes = len(data)
		if err := os.WriteFile(filepath.Join(dir, segmentName(uint64(s+1))), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const decoded = perSegment / 64 * 64 * 64 // one segment as []Feedback
	bound := uint64(workers*segBytes + 8*replayBatch*64 + 2<<20)
	if bound > decoded/2 {
		t.Fatalf("fixture: the bound of %d B is no tighter than a decoded segment's %d B", bound, decoded)
	}

	l, err := openLedger(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	before := heapAlloc()
	var peak, n uint64
	if err := l.replayFrom(context.Background(), 0, func(batch *feedback.Batch) error {
		n += uint64(batch.Len())
		if grown := heapAlloc() - before; grown > peak && grown < 1<<40 {
			peak = grown
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := uint64(segments * (perSegment / 64 * 64)); n != want {
		t.Fatalf("replayed %d records, want %d", n, want)
	}
	t.Logf("%d B segments (%.2f B/record), replay peaked at %d B of live heap, bound %d B, a decoded segment is %d B",
		segBytes, float64(segBytes)/float64(perSegment/64*64), peak, bound, decoded)
	if peak > bound {
		t.Errorf("replay held %d B of live heap, want at most %d B (%d workers x %d B segment files + batches)", peak, bound, workers, segBytes)
	}
}

// differentialStream is 50 000 records as a node's log would hold them:
// honest, hibernating and periodic servers interleaved, a server whose every
// record names a fresh client, ids at the 1024-byte limit, equal times and
// times that step backwards.
func differentialStream(t *testing.T) []feedback.Feedback {
	t.Helper()
	rng := stats.NewRNG(28)
	var hists []*feedback.History
	add := func(h *feedback.History, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		hists = append(hists, h)
	}
	for i := 0; i < 6; i++ {
		add(attack.GenHonest(feedback.EntityID(fmt.Sprintf("honest-%d", i)), 5000, 0.90+0.015*float64(i), 40, rng))
	}
	for i := 0; i < 2; i++ {
		add(attack.GenHibernating(feedback.EntityID(fmt.Sprintf("hibernating-%d", i)), 3800, 0.95, 200, rng))
		add(attack.GenPeriodic(feedback.EntityID(fmt.Sprintf("periodic-%d", i)), 4000, 50, 0.1, rng))
	}
	longServer := feedback.EntityID(strings.Repeat("S", 1024))
	sybil, long := feedback.NewHistory("sybil-target"), feedback.NewHistory(longServer)
	for i := 0; i < 3000; i++ {
		if err := sybil.Append(feedback.Feedback{
			Time: time.Unix(int64(i), 0).UTC(), Server: "sybil-target",
			Client: feedback.EntityID(fmt.Sprintf("sybil-%d", i)), Rating: feedback.Positive,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		if err := long.Append(feedback.Feedback{
			Time: time.Unix(int64(i/2), 0).UTC(), Server: longServer, // every time twice
			Client: feedback.EntityID(strings.Repeat("C", 1023) + string(rune('a'+i%7))), Rating: feedback.Rating(1 + i%2),
		}); err != nil {
			t.Fatal(err)
		}
	}
	hists = append(hists, sybil, long)
	// Interleave: the log takes a record from a random server each step, so
	// consecutive times jump both ways; now and then two records swap.
	next := make([]int, len(hists))
	var out []feedback.Feedback
	for len(hists) > 0 {
		k := rng.Intn(len(hists))
		out = append(out, hists[k].At(next[k]))
		if next[k]++; next[k] == hists[k].Len() {
			hists, next = append(hists[:k], hists[k+1:]...), append(next[:k], next[k+1:]...)
		}
		if n := len(out); n > 1 && rng.Intn(50) == 0 {
			out[n-1], out[n-2] = out[n-2], out[n-1]
		}
	}
	if len(out) != 50_000 {
		t.Fatalf("stream holds %d records", len(out))
	}
	return out
}

// TestBlocksMatchRowsDifferential: every record survives bit for bit. One
// stream written as blocks by the ledger, across several sealed segments,
// replays to the records written, and boots a store whose per-server
// checksums and verdicts equal those of a store fed the same rows directly.
func TestBlocksMatchRowsDifferential(t *testing.T) {
	recs := differentialStream(t)
	blocks := filepath.Join(t.TempDir(), "blocks")
	l, err := openLedger(blocks, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.replayFrom(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	for rest := recs; len(rest) > 0; {
		n := min(1+rng.Intn(300), len(rest))
		if err := l.AppendBatch(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	if l.sealedSegs < 2 {
		t.Fatalf("block fixture holds %d sealed segments, want several", l.sealedSegs)
	}
	t.Logf("%d records: %.1f B/record as blocks", len(recs), float64(l.sealedBytes+l.segSize)/float64(len(recs)))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, got, err := Open(blocks)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("replayed %d records that differ from the %d written", len(got), len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	tester, err := behavior.NewMulti(behavior.Config{
		Calibrator: stats.NewCalibrator(stats.CalibrationConfig{Replicates: 100, Seed: 3}, 0)})
	if err != nil {
		t.Fatal(err)
	}
	tp, err := core.NewTwoPhase(tester, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := OpenStoreOptions(context.Background(), blocks, Options{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ps.Close() }()
	a, b := ps.Store(), store.NewSharded(4)
	for i, r := range b.AddBatch(recs, 1) {
		if r.Err != nil {
			t.Fatalf("row %d: %v", i, r.Err)
		}
	}
	sums := a.Checksums()
	if !reflect.DeepEqual(sums, b.Checksums()) {
		t.Fatal("the two stores' per-server checksums differ")
	}
	if len(sums) != 12 {
		t.Fatalf("%d servers booted, want 12", len(sums))
	}
	for id := range sums {
		ha, _ := a.Snapshot(id)
		hb, _ := b.Snapshot(id)
		va, err := tp.Assess(ha)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := tp.Assess(hb)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(va, vb) {
			t.Fatalf("%.20s: verdicts differ:\n blocks %+v\n rows   %+v", id, va, vb)
		}
	}
}
