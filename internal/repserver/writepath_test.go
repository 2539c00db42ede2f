package repserver

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/service"
	"honestplayer/internal/wire"
)

// writePathStream is one seeded stream of submit.batch frames: four
// 256-record frames of one server each, four 64-record frames over 64
// servers, then a frame of duplicates and new records, one with a record
// older than its server's newest and one beside an existing record's time,
// and one holding a record no encoding carries (rating 0), which a client
// sends as JSON. Its times are whole seconds with nanosecond stamps among
// them. fwd holds the 64 × 64 frames' records as a door forwards them.
func writePathStream() (frames [][]feedback.Feedback, fwd [][]feedback.Feedback) {
	base := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	rec := func(server string, client, sec, nsec int, good bool) feedback.Feedback {
		r := feedback.Negative
		if good {
			r = feedback.Positive
		}
		return feedback.Feedback{Time: base.Add(time.Duration(sec)*time.Second + time.Duration(nsec)),
			Server: feedback.EntityID(server), Client: feedback.EntityID(fmt.Sprintf("c%d", client)), Rating: r}
	}
	for s := range 4 {
		frame := make([]feedback.Feedback, 256)
		for i := range frame {
			frame[i] = rec(fmt.Sprintf("srv-%c", 'a'+s), (i*7+s)%40, i, (i%5)*(s%2)*1000, i%11 != 0)
		}
		frames = append(frames, frame)
	}
	for f := range 4 {
		frame := make([]feedback.Feedback, 64)
		for i := range frame {
			frame[i] = rec(fmt.Sprintf("s%02d", i), (i+f*3)%90, 300+f*60+i, 0, (i+f)%9 != 0)
		}
		frames = append(frames, frame)
		fwd = append(fwd, frame)
	}
	again := append(append([]feedback.Feedback(nil), frames[0][:10]...), frames[5][20:25]...)
	again = append(again, rec("srv-a", 41, 400, 0, true), rec("s07", 3, 900, 0, false))
	frames = append(frames, again,
		[]feedback.Feedback{rec("srv-b", 42, 17, 500, true), rec("srv-c", 43, 33, 0, false), rec("srv-d", 0, 1000, 0, true)},
		[]feedback.Feedback{rec("srv-a", 44, 1001, 0, true), {Time: base, Server: "srv-a", Client: "bad"}, rec("s01", 45, 1002, 0, true)})
	return frames, fwd
}

// TestWritePathBytesPinned: the write path carries record batches from the
// frame to the block (ADR 0021) without moving a byte anywhere. One seeded
// stream goes through a durable node — through a segment roll, an explicit
// snapshot halfway and the rest — and the SHA-256 of every segment and
// snapshot it leaves, of the submit.batch frames and their answers, and of
// the fwd.submit.batch frames a door would send for the 64 × 64 frames, are
// the values the rows-carrying write path produced before. The two frame
// digests moved once since, when a frame alone became a connection of its
// own: each id a batch introduces is a literal name, a 0 byte before its
// length and bytes.
func TestWritePathBytesPinned(t *testing.T) {
	frames, fwd := writePathStream()
	dir := filepath.Join(t.TempDir(), "ledger")
	ps, err := ledger.OpenStoreOptions(context.Background(), dir, ledger.Options{Shards: 4, SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t), Store: ps.Store(), Recorder: ps})
	if err != nil {
		t.Fatal(err)
	}
	ctx := service.WithCodec(context.Background(), wire.V2Codec)
	got := map[string]string{}
	digest := func(key string, b []byte) {
		h := sha256.New()
		if prev, ok := got[key]; ok {
			raw, _ := hex.DecodeString(prev)
			h.Write(raw)
		}
		h.Write(b)
		got[key] = hex.EncodeToString(h.Sum(nil))
	}
	for i, recs := range frames {
		env, err := wire.V2Codec.Encode(wire.TypeSubmitB, uint64(i+1), wire.BatchRequest{Records: recs})
		if err != nil {
			t.Fatal(err)
		}
		digest("submit.batch", append([]byte{b2byte(env.Binary)}, env.Payload...))
		resp, err := srv.pipeline(ctx, env)
		if err != nil || resp.Type != wire.TypeSubmitBR {
			t.Fatalf("frame %d: %s, %v", i, resp.Type, err)
		}
		digest("submit.batch.resp", resp.Payload)
		if i == len(frames)/2 {
			if _, err := ps.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, recs := range fwd {
		env, err := wire.V2Codec.Encode(wire.TypeFwdBatch, uint64(i+1), fwdRequest("n2", recs))
		if err != nil {
			t.Fatal(err)
		}
		digest("fwd.submit.batch", env.Payload)
	}
	if err := errors.Join(srv.Close(), ps.Close()); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		digest(f.Name(), b)
		names = append(names, f.Name())
	}
	sort.Strings(names)
	if len(names) < 3 || names[len(names)-1] != "snapshot.0000000001" {
		t.Fatalf("the stream left %v, want segments that rolled and one snapshot", names)
	}
	want := map[string]string{
		"ledger.000001":       "af6e6f7062601735f231a6a3381ef3d28e581baa4604bf179aad05302077c5ec",
		"ledger.000002":       "49513bbf1d159654a49902c5a27143bfcf772faa57fcd78d5e0c99b7652f5e5a",
		"ledger.000003":       "3b7b733942b30d763c503bd20f93bdc1481a69eb9f1d50779b4c2e7f0144ca38",
		"snapshot.0000000001": "a90e033518b247566be83be09aaccb14c688e9fa989421d01990b5b34f13b8a4",
		"submit.batch":        "fc933189f37f745e27b4be61ddf59090b1e85c8ae8117a72bc3f9c67ea80eaa5",
		"submit.batch.resp":   "94347d72e51c74241bb84df8fd09b37067e7bc5a4c3e8d1cbb9f5cc1eb3f41dd",
		"fwd.submit.batch":    "ffbb50ded65ce3df7df9a985d8f2e5831d690708646d6d1e6dd580e3b8728092",
	}
	if !reflect.DeepEqual(got, want) {
		for k := range got {
			if got[k] != want[k] {
				t.Errorf("%s: sha256 %s, want %s", k, got[k], want[k])
			}
		}
		for k := range want {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: missing", k)
			}
		}
	}
}

func b2byte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// fwdRequest is the fwd.submit.batch a door sends node for recs.
func fwdRequest(node string, recs []feedback.Feedback) wire.FwdBatchRequest {
	b, errs := feedback.Pack(recs)
	if errs != nil {
		panic(errs)
	}
	return wire.FwdBatchRequest{Node: node, Records: wire.RecordBatch{Batch: b}}
}

// TestSubmitBatchFrameAllocs bounds what one 256-record submit.batch of one
// new server — the seeding frame — allocates from its payload to its
// answer on a durable node: decode into a batch, the store's server run,
// the ledger's group commit and the response. The rows-carrying write path
// made 158 allocations and 90 KB a frame: a record struct per record, a
// copy of the stored ones, per-record hashers and the ledger's re-encode.
// Under the race detector a pool drops a quarter of what it is given, so
// the bounds leave room for a scratch paid for again. The frames cross a
// connection, as a client sends them and serve runs them: the client
// commits each frame it encodes, and the node commits it, then serves it.
func TestSubmitBatchFrameAllocs(t *testing.T) {
	ps, err := ledger.OpenStoreOptions(context.Background(), filepath.Join(t.TempDir(), "ledger"), ledger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("127.0.0.1:0", Config{Assessor: testAssessor(t), Store: ps.Store(), Recorder: ps})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = errors.Join(srv.Close(), ps.Close()) }()
	const runs = 20
	client, conn := wire.CodecFor(wire.VersionV2), wire.CodecFor(wire.VersionV2)
	var envs []wire.Envelope
	for f := range 2*runs + 1 {
		recs := make([]feedback.Feedback, wire.MaxSubmitBatch)
		for i := range recs {
			recs[i] = feedback.Feedback{Time: time.Unix(int64(1_700_000_000+i), 0).UTC(),
				Server: feedback.EntityID(fmt.Sprintf("srv-%d", f)), Client: feedback.EntityID(fmt.Sprintf("cli-%d", i%50)), Rating: feedback.Positive}
		}
		env, err := client.Encode(wire.TypeSubmitB, uint64(f+1), wire.BatchRequest{Records: recs})
		if err == nil {
			err = client.Commit(&env)
		}
		if err != nil {
			t.Fatal(err)
		}
		envs = append(envs, env)
	}
	ctx := service.WithCodec(context.Background(), conn)
	serve := func(env wire.Envelope) (wire.Envelope, error) {
		if err := conn.Commit(&env); err != nil {
			return wire.Envelope{}, err
		}
		return srv.pipeline(ctx, env)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		resp, err := serve(envs[next])
		next++
		if err != nil || resp.Type != wire.TypeSubmitBR {
			t.Fatalf("%s, %v", resp.Type, err)
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, env := range envs[next:] {
		if _, err := serve(env); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / uint64(len(envs)-next)
	t.Logf("a 256-record frame: %.0f allocations, %d B", allocs, bytes)
	if allocs > 120 || bytes > 48<<10 {
		t.Errorf("a 256-record frame: %.0f allocations, %d B; want <= 120 and <= 48 KiB", allocs, bytes)
	}
}

// TestStoreErrorCodes: a record the one validation refuses, an overlong id
// among them, answers invalid_feedback; a history that cannot grow is the
// node's limit, not the record's, and answers internal.
func TestStoreErrorCodes(t *testing.T) {
	long := feedback.EntityID(make([]byte, 1025))
	for _, c := range []struct {
		err  error
		code string
	}{
		{feedback.Feedback{Time: time.Unix(1, 0), Server: "s", Client: long, Rating: feedback.Positive}.Validate(), wire.CodeInvalidFeedback},
		{feedback.Feedback{Time: time.Unix(1, 0), Server: "s", Client: "c"}.Validate(), wire.CodeInvalidFeedback},
		{fmt.Errorf("record 3: %w", feedback.ErrHistoryFull), wire.CodeInternal},
	} {
		if got := storeError(c.err); got.Code != c.code {
			t.Errorf("%v: answered %s, want %s", c.err, got.Code, c.code)
		}
	}
}
