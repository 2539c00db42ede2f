package ledger

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"honestplayer/internal/feedback"
)

func rec(c feedback.EntityID, good bool, at int64) feedback.Feedback {
	r := feedback.Negative
	if good {
		r = feedback.Positive
	}
	return feedback.Feedback{Time: time.Unix(at, 0).UTC(), Server: "srv", Client: c, Rating: r}
}

// writeFile writes data at dir/name.
func writeFile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestOpenEmptyAndAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, recs, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh ledger replayed %d records", len(recs))
	}
	want := []feedback.Feedback{rec("a", true, 1), rec("b", false, 2), rec("c", true, 3)}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Client != want[i].Client || got[i].Rating != want[i].Rating ||
			!got[i].Time.Equal(want[i].Time) {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

func TestAppendValidates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if err := l.Append(feedback.Feedback{}); err == nil {
		t.Fatal("invalid record must fail")
	}
}

// activeSegPath returns the path of the ledger's current active segment.
// Tests that simulate crashes poke bytes into it directly.
func activeSegPath(t *testing.T, dir string) string {
	t.Helper()
	l := &Ledger{dir: dir}
	segs, err := l.listSegments()
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	return l.segPath(segs[len(segs)-1])
}

func TestTornTrailingRecordRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Append(rec("a", true, 1))
	_ = l.Append(rec("b", true, 2))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: write a partial binary record.
	f, err := os.OpenFile(activeSegPath(t, path), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("replayed %d records, want 2", len(got))
	}
	// The torn bytes were truncated; a new append lands cleanly.
	if err := l2.Append(rec("c", true, 3)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("after recovery+append: %d records, want 3", len(got))
	}
}

func TestCorruptInteriorStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	_ = l.Append(rec("a", true, 1))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(activeSegPath(t, path), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = f.WriteString("GARBAGE BYTES THAT ARE NOT A RECORD\n")
	_ = f.Close()

	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1 (stop at corruption)", len(got))
	}
}

func TestClosedLedgerErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec("a", true, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("sync after close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestSync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	if err := l.Append(rec("a", true, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.jsonl")
	l, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := l.Append(rec(feedback.EntityID(rune('a'+g)), true, int64(g*1000+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 400 {
		t.Fatalf("replayed %d records, want 400", len(got))
	}
}

func TestPersistentStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	ps, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := ps.Add(rec("a", true, 1))
	if err != nil || !stored {
		t.Fatalf("add: %v %v", stored, err)
	}
	// Duplicates are not re-persisted.
	stored, err = ps.Add(rec("a", true, 1))
	if err != nil || stored {
		t.Fatalf("dup add: %v %v", stored, err)
	}
	_, _ = ps.Add(rec("b", false, 2))
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	ps2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ps2.Close() }()
	if ps2.Store().Len() != 2 {
		t.Fatalf("restored store has %d records, want 2", ps2.Store().Len())
	}
	h, err := ps2.Store().History("srv")
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 || h.GoodCount() != 1 {
		t.Fatalf("restored history: %v", h)
	}
}

func TestOpenStoreOnCorruptDir(t *testing.T) {
	if _, err := OpenStore(filepath.Join(t.TempDir(), "missing", "x.jsonl")); err == nil {
		t.Fatal("open in missing directory must fail")
	}
}

func TestOpenOnExistingDirectory(t *testing.T) {
	// A ledger path that is already a directory is a (possibly empty)
	// segmented ledger, not an error.
	dir := t.TempDir()
	l, recs, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("empty directory replayed %d records", len(recs))
	}
	if err := l.Append(rec("a", true, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segmentName(1))); err != nil {
		t.Fatalf("segment 1 missing: %v", err)
	}
}

func TestPersistentStoreAddAfterClose(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l.jsonl")
	ps, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	// The in-memory store still accepts the record, but persistence fails
	// loudly rather than silently dropping it.
	_, err = ps.Add(rec("a", true, 1))
	if err == nil {
		t.Fatal("Add after Close must report the persistence failure")
	}
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed in chain", err)
	}
}

func TestPersistentStoreInvalidRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l.jsonl")
	ps, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ps.Close() }()
	if _, err := ps.Add(feedback.Feedback{}); err == nil {
		t.Fatal("invalid record must fail")
	}
}

// TestOutOfRangeTimeSameAcrossReopen: a time unix nanoseconds cannot carry
// used to be accepted, ordered by its time.Time while resident and by its
// wrapped nanoseconds after the next boot — one history, two orders. It is
// refused now, so what a reopen replays is what was served before it.
func TestOutOfRangeTimeSameAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "l")
	ps, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	y2300 := rec("b", true, 0)
	y2300.Time = time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	zero := rec("c", true, 0)
	zero.Time = time.Time{}
	res := ps.AddBatch([]feedback.Feedback{rec("a", true, 1_700_000_000), y2300, zero, rec("d", false, 1_700_000_001)}, 1)
	for i, wantErr := range []bool{false, true, true, false} {
		if res[i].Stored == wantErr || errors.Is(res[i].Err, feedback.ErrTimeRange) != wantErr {
			t.Fatalf("record %d: %+v, want rejected=%v", i, res[i], wantErr)
		}
	}
	before := ps.Store().Records("srv")
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	ps2, err := OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ps2.Close() }()
	if after := ps2.Store().Records("srv"); len(after) != 2 || !reflect.DeepEqual(after, before) {
		t.Fatalf("history after reopen %v, before %v", after, before)
	}
}

// TestRollOverSealsAndUpgrades drives a ledger past its roll-over threshold
// and checks segments seal with verifiable footers and replay sees
// everything in order.
func TestRollOverSealsAndUpgrades(t *testing.T) {
	path := filepath.Join(t.TempDir(), "roll")
	l, err := openLedger(path, 512) // tiny threshold to force roll-overs
	if err != nil {
		t.Fatal(err)
	}
	if err := l.replayFrom(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	const total = 100
	for i := 0; i < total; i++ {
		if err := l.Append(rec(feedback.EntityID([]byte{'c', byte('a' + i%5)}), i%3 != 0, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if l.rolls == 0 {
		t.Fatal("no roll-over happened at a 512-byte threshold")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := (&Ledger{dir: path}).listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("only %d segments", len(segs))
	}
	for _, idx := range segs[:len(segs)-1] {
		data, err := os.ReadFile(filepath.Join(path, segmentName(idx)))
		if err != nil {
			t.Fatal(err)
		}
		sc, _ := scanSegment(data, nil)
		if !sc.sealed {
			t.Fatalf("segment %d not sealed", idx)
		}
		if sc.truncated != 0 {
			t.Fatalf("sealed segment %d reports %d truncated bytes", idx, sc.truncated)
		}
	}

	_, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != total {
		t.Fatalf("replayed %d records, want %d", len(got), total)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Time.Before(got[i-1].Time) {
			t.Fatal("replay out of order across segments")
		}
	}
}

// TestCorruptSealedSegmentTruncatesSuffix: flipping bytes inside a sealed
// (non-final) segment must degrade the ledger to the longest verified
// prefix — later segments dropped, corrupted segment truncated and
// re-adopted as the active tail.
func TestCorruptSealedSegmentTruncatesSuffix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt")
	l, err := openLedger(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.replayFrom(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := l.Append(rec("a", i%2 == 0, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := (&Ledger{dir: path}).listSegments()
	if err != nil || len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %v (%v)", segs, err)
	}

	// Count the intact records of segment 2's prefix before corrupting it.
	victim := filepath.Join(path, segmentName(2))
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	seg1Data, err := os.ReadFile(filepath.Join(path, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	sc1, _ := scanSegment(seg1Data, nil)
	mid := len(data) / 2
	data[mid] ^= 0xFF
	if err := os.WriteFile(victim, data, 0o644); err != nil {
		t.Fatal(err)
	}
	scBad, _ := scanSegment(data, nil)
	if scBad.sealed || scBad.truncated == 0 {
		t.Fatal("corruption not detected by scan")
	}

	l2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sc1.records + scBad.records
	if uint64(len(got)) != want {
		t.Fatalf("replayed %d records, want %d (seg1 %d + seg2 intact prefix %d)",
			len(got), want, sc1.records, scBad.records)
	}
	if l2.truncatedSegments == 0 || l2.truncatedBytes == 0 {
		t.Fatalf("truncation not accounted: %d segments, %d bytes",
			l2.truncatedSegments, l2.truncatedBytes)
	}
	if l2.segIndex != 2 {
		t.Fatalf("active segment = %d, want re-adopted 2", l2.segIndex)
	}
	// Later segments are gone; appends resume on the truncated segment.
	if _, err := os.Stat(filepath.Join(path, segmentName(3))); !os.IsNotExist(err) {
		t.Fatalf("segment 3 should have been dropped: %v", err)
	}
	if err := l2.Append(rec("a", true, 1000)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, got2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got2)) != want+1 {
		t.Fatalf("after repair+append: %d records, want %d", len(got2), want+1)
	}
}

// TestKillDuringRollOver: a sealed highest-numbered segment (the crash
// window between sealing and creating the successor) must boot cleanly with
// a fresh segment after it.
func TestKillDuringRollOver(t *testing.T) {
	path := filepath.Join(t.TempDir(), "killroll")
	l, err := openLedger(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.replayFrom(context.Background(), 0, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := l.Append(rec("a", true, int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := (&Ledger{dir: path}).listSegments()
	if err != nil || len(segs) < 2 {
		t.Fatalf("need >=2 segments: %v %v", segs, err)
	}
	total := 0
	for _, idx := range segs {
		data, err := os.ReadFile(filepath.Join(path, segmentName(idx)))
		if err != nil {
			t.Fatal(err)
		}
		sc, _ := scanSegment(data, nil)
		total += int(sc.records)
	}
	// Simulate the crash: drop the segments after the first sealed one, so
	// the highest remaining segment is sealed.
	sealedData, err := os.ReadFile(filepath.Join(path, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	sc1, _ := scanSegment(sealedData, nil)
	if !sc1.sealed {
		t.Fatal("segment 1 should be sealed")
	}
	for _, idx := range segs[1:] {
		if err := os.Remove(filepath.Join(path, segmentName(idx))); err != nil {
			t.Fatal(err)
		}
	}
	l2, got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(got)) != sc1.records {
		t.Fatalf("replayed %d, want %d", len(got), sc1.records)
	}
	if l2.segIndex != 2 {
		t.Fatalf("active segment = %d, want fresh 2 after the sealed one", l2.segIndex)
	}
	if err := l2.Append(rec("b", true, 999)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
}
