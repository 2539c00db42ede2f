package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"honestplayer/internal/behavior"
	"honestplayer/internal/core"
	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/repserver"
	"honestplayer/internal/stats"
	"honestplayer/internal/trust"
)

func startTestServer(t *testing.T) string {
	t.Helper()
	tester, err := behavior.NewMulti(behavior.Config{
		Calibrator: stats.NewCalibrator(stats.CalibrationConfig{Seed: 1, Replicates: 200}, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	assessor, err := core.NewTwoPhase(tester, trust.Average{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := repserver.New("127.0.0.1:0", repserver.Config{Assessor: assessor})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return srv.Addr()
}

func TestPingSubmitHistoryAssess(t *testing.T) {
	addr := startTestServer(t)

	var out strings.Builder
	if err := run([]string{"-addr", addr, "ping"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pong") {
		t.Fatalf("ping output = %q", out.String())
	}

	// Submit 100 positive records at distinct times.
	for i := 0; i < 100; i++ {
		out.Reset()
		ts := "2026-01-01T00:00:" + twoDigits(i%60) + "Z"
		if i >= 60 {
			ts = "2026-01-01T00:01:" + twoDigits(i%60) + "Z"
		}
		err := run([]string{"-addr", addr, "submit",
			"-server", "s1", "-client", "alice", "-rating", "positive", "-time", ts}, &out)
		if err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(out.String(), "stored") {
		t.Fatalf("submit output = %q", out.String())
	}

	// Duplicate submission is reported.
	out.Reset()
	err := run([]string{"-addr", addr, "submit",
		"-server", "s1", "-client", "alice", "-rating", "positive",
		"-time", "2026-01-01T00:00:00Z"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "duplicate") {
		t.Fatalf("duplicate output = %q", out.String())
	}

	out.Reset()
	if err := run([]string{"-addr", addr, "history", "-server", "s1", "-limit", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "5 records (of 100 total)") {
		t.Fatalf("history output = %q", out.String())
	}

	out.Reset()
	if err := run([]string{"-addr", addr, "assess", "-server", "s1", "-threshold", "0.9"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"accept": true`) {
		t.Fatalf("assess output = %q", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	addr := startTestServer(t)
	if err := run([]string{"-addr", addr}, &strings.Builder{}); err == nil {
		t.Error("missing command must fail")
	}
	if err := run([]string{"-addr", addr, "frobnicate"}, &strings.Builder{}); err == nil {
		t.Error("unknown command must fail")
	}
	if err := run([]string{"-addr", addr, "submit", "-server", "s", "-client", "c",
		"-rating", "meh"}, &strings.Builder{}); err == nil {
		t.Error("invalid rating must fail")
	}
	if err := run([]string{"-addr", addr, "submit", "-server", "s", "-client", "c",
		"-time", "not-a-time"}, &strings.Builder{}); err == nil {
		t.Error("invalid time must fail")
	}
	if err := run([]string{"-addr", addr, "assess", "-server", "ghost"}, &strings.Builder{}); err == nil {
		t.Error("unknown server must surface the remote error")
	}
}

func twoDigits(v int) string {
	if v < 10 {
		return "0" + string(rune('0'+v))
	}
	return string(rune('0'+v/10)) + string(rune('0'+v%10))
}

func TestLocalAssess(t *testing.T) {
	// Build a JSONL history file: a deterministic periodic attacker.
	recs := make([]feedback.Feedback, 0, 300)
	for i := 0; i < 300; i++ {
		r := feedback.Positive
		if i%10 == 9 {
			r = feedback.Negative
		}
		recs = append(recs, feedback.Feedback{
			Time: time.Unix(int64(i), 0).UTC(), Server: "attacker", Client: "c", Rating: r,
		})
	}
	path := filepath.Join(t.TempDir(), "history.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedback.WriteJSONLines(f, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"local-assess", "-file", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"suspicious": true`) {
		t.Fatalf("periodic attacker not flagged offline:\n%s", out.String())
	}
	// Explicit server and scheme=none path.
	out.Reset()
	if err := run([]string{"local-assess", "-file", path, "-server", "attacker", "-scheme", "none"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"accept": true`) {
		t.Fatalf("bare average should accept the 90%% attacker:\n%s", out.String())
	}
}

// TestLocalAssessMatchesTrustd: local-assess over an exported history
// returns the verdict a trustd on default flags serves for the same records,
// calibration thresholds included.
func TestLocalAssessMatchesTrustd(t *testing.T) {
	assessor, err := core.DefaultSpec.Build()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := repserver.New("127.0.0.1:0", repserver.Config{Assessor: assessor})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer func() { _ = srv.Close() }()

	rng := stats.NewRNG(5)
	var lines strings.Builder
	recs := make([]feedback.Feedback, 300)
	for i := range recs {
		recs[i] = feedback.Feedback{
			Time: time.Unix(1700000000+int64(i), 0).UTC(), Server: "s1",
			Client: feedback.EntityID(fmt.Sprintf("c%d", rng.Intn(20))), Rating: feedback.Positive,
		}
		if !rng.Bernoulli(0.9) {
			recs[i].Rating = feedback.Negative
		}
	}
	if err := feedback.WriteJSONLines(&lines, recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "history.jsonl")
	if err := os.WriteFile(path, []byte(lines.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	oldStdin := stdin
	stdin = strings.NewReader(lines.String())
	t.Cleanup(func() { stdin = oldStdin })
	if err := run([]string{"-addr", srv.Addr(), "submit-batch"}, &strings.Builder{}); err != nil {
		t.Fatal(err)
	}

	type verdict struct {
		Accept     bool            `json:"accept"`
		Assessment core.Assessment `json:"assessment"`
	}
	var served, offline verdict
	var out strings.Builder
	if err := run([]string{"-addr", srv.Addr(), "assess", "-server", "s1"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(out.String()), &served); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"local-assess", "-file", path}, &out); err != nil {
		t.Fatal(err)
	}
	_, doc, _ := strings.Cut(out.String(), "\n") // after the summary line
	if err := json.Unmarshal([]byte(doc), &offline); err != nil {
		t.Fatal(err)
	}
	if len(served.Assessment.Verdict.Suffixes) == 0 {
		t.Fatalf("trustd ran no behaviour test: %+v", served)
	}
	if !reflect.DeepEqual(offline, served) {
		t.Fatalf("local-assess answers %+v\ntrustd answers %+v", offline, served)
	}
}

func TestLocalAssessErrors(t *testing.T) {
	if err := run([]string{"local-assess"}, &strings.Builder{}); err == nil {
		t.Error("missing -file must fail")
	}
	if err := run([]string{"local-assess", "-file", "/nonexistent"}, &strings.Builder{}); err == nil {
		t.Error("missing file must fail")
	}
}

func TestAssessBatch(t *testing.T) {
	addr := startTestServer(t)
	// Seed two servers through the CLI submit path.
	for _, srv := range []string{"b1", "b2"} {
		for i := 0; i < 90; i++ {
			ts := "2026-01-01T00:" + twoDigits(i/60) + ":" + twoDigits(i%60) + "Z"
			err := run([]string{"-addr", addr, "submit",
				"-server", srv, "-client", "alice", "-rating", "positive", "-time", ts}, &strings.Builder{})
			if err != nil {
				t.Fatal(err)
			}
		}
	}

	// Server IDs as positional arguments, one of them unknown.
	var out strings.Builder
	if err := run([]string{"-addr", addr, "assess-batch", "-threshold", "0.9", "b1", "ghost", "b2"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Count(got, `"accept": true`) != 2 {
		t.Fatalf("assess-batch output:\n%s", got)
	}
	if !strings.Contains(got, `"unknown_server"`) || !strings.Contains(got, `no records for \"ghost\"`) {
		t.Fatalf("missing per-item error:\n%s", got)
	}

	// Server IDs from stdin, one per line.
	oldStdin := stdin
	stdin = strings.NewReader("b1\n\n  b2  \n")
	t.Cleanup(func() { stdin = oldStdin })
	out.Reset()
	if err := run([]string{"-addr", addr, "assess-batch"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Count(out.String(), `"accept": true`) != 2 || strings.Contains(out.String(), `"error"`) {
		t.Fatalf("stdin assess-batch output:\n%s", out.String())
	}

	// Empty stdin and no arguments must fail.
	stdin = strings.NewReader("")
	if err := run([]string{"-addr", addr, "assess-batch"}, &strings.Builder{}); err == nil {
		t.Error("assess-batch with no servers must fail")
	}
}

func TestSubmitBatchCommand(t *testing.T) {
	addr := startTestServer(t)

	// Records as positional JSON arguments, one a duplicate of the other.
	var out strings.Builder
	recJSON := `{"time":"2026-01-01T00:00:01Z","server":"sb1","client":"alice","rating":2}`
	err := run([]string{"-addr", addr, "submit-batch", recJSON,
		`{"time":"2026-01-01T00:00:02Z","server":"sb1","client":"bob","rating":1}`,
		recJSON}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, `"stored": 2`) || !strings.Contains(got, `"duplicates": 1`) {
		t.Fatalf("submit-batch output:\n%s", got)
	}
	if strings.Count(got, `"stored": true`) != 2 {
		t.Fatalf("per-item slots missing:\n%s", got)
	}

	// An invalid record mid-batch (rating 0 passes json.Unmarshal, fails
	// server-side): the rest of the batch is stored and the rejection
	// carries its request index.
	out.Reset()
	err = run([]string{"-addr", addr, "submit-batch",
		`{"time":"2026-01-01T00:00:03Z","server":"sb1","client":"carol","rating":2}`,
		`{"time":"2026-01-01T00:00:04Z","server":"sb1","client":"dave","rating":0}`,
		`{"time":"2026-01-01T00:00:05Z","server":"sb1","client":"erin","rating":2}`}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got = out.String()
	if !strings.Contains(got, `"stored": 2`) || !strings.Contains(got, `"index": 1`) ||
		!strings.Contains(got, `"invalid_feedback"`) {
		t.Fatalf("invalid-record submit-batch output:\n%s", got)
	}

	// Records as JSON lines on stdin (validated client-side before the
	// round trip).
	oldStdin := stdin
	stdin = strings.NewReader(
		`{"time":"2026-01-01T00:00:06Z","server":"sb1","client":"frank","rating":2}` + "\n" +
			`{"time":"2026-01-01T00:00:07Z","server":"sb1","client":"grace","rating":1}` + "\n")
	t.Cleanup(func() { stdin = oldStdin })
	out.Reset()
	if err := run([]string{"-addr", addr, "submit-batch"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"stored": 2`) {
		t.Fatalf("stdin submit-batch output:\n%s", out.String())
	}

	// The stored records really landed.
	out.Reset()
	if err := run([]string{"-addr", addr, "history", "-server", "sb1", "-limit", "10"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "(of 6 total)") {
		t.Fatalf("history after submit-batch:\n%s", out.String())
	}

	// Empty stdin and no arguments must fail; so must malformed JSON.
	stdin = strings.NewReader("")
	if err := run([]string{"-addr", addr, "submit-batch"}, &strings.Builder{}); err == nil {
		t.Error("submit-batch with no records must fail")
	}
	if err := run([]string{"-addr", addr, "submit-batch", "{not json"}, &strings.Builder{}); err == nil {
		t.Error("submit-batch with malformed JSON must fail")
	}
}

func TestLedgerInfo(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "led")
	ps, err := ledger.OpenStoreOptions(context.Background(), dir, ledger.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	base := time.Unix(1700000000, 0).UTC()
	for i := 0; i < 20; i++ {
		f := feedback.Feedback{
			Server: "s1", Client: feedback.EntityID([]byte{'c', byte('a' + i%3)}),
			Rating: feedback.Positive, Time: base.Add(time.Duration(i) * time.Second),
		}
		if ok, err := ps.Add(f); !ok || err != nil {
			t.Fatalf("add: %v %v", ok, err)
		}
	}
	if _, err := ps.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"ledger-info", "-path", dir, "-v"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"segmented ledger", "records: 20 verified", "all segments verify", "snapshots: 1", "snapshot 1: version 4, valid", "section bytes each)\n",
		"segment 000001: sealed", "20 records in 20 blocks ("} {
		if !strings.Contains(text, want) {
			t.Fatalf("output missing %q:\n%s", want, text)
		}
	}

	out.Reset()
	if err := run([]string{"ledger-info", "-path", dir, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var info ledger.Info
	if err := json.Unmarshal([]byte(out.String()), &info); err != nil {
		t.Fatalf("json output: %v", err)
	}
	if info.Records != 20 || len(info.Snapshots) != 1 || !info.Snapshots[0].Valid {
		t.Fatalf("json info: %+v", info)
	}
	if seg := info.Segments[0]; seg.Blocks != 20 || seg.BytesPerRecord <= 0 {
		t.Fatalf("json segment info: %+v", seg)
	}

	if err := run([]string{"ledger-info"}, &out); err == nil {
		t.Fatal("missing -path must fail")
	}
}

// TestLedgerInfoMixedFormats: ledger-info refuses a ledger in any layout an
// earlier revision wrote — v1 rows, v2 blocks or JSON lines beside v3
// blocks, a single file — with ledger.ErrOldFormat, whose advice names the
// upgrade path, and leaves every file under it as it was.
func TestLedgerInfoMixedFormats(t *testing.T) {
	forEachOlderLayout(t, func(path string) error {
		err := run([]string{"ledger-info", "-path", path}, &strings.Builder{})
		if err != nil && !strings.Contains(err.Error(), "Upgrading an older ledger") {
			t.Errorf("the refusal names no upgrade path: %v", err)
		}
		return err
	})
}

// olderLayouts is internal/ledger's table of ledgers earlier revisions left,
// one directory each holding the -ledger path "led" and whatever lies beside
// it (internal/ledger's TestOldFormatRefusedReadOnly).
const olderLayouts = "../../internal/ledger/testdata/older"

// treeBytes reads every file under root by path relative to root; a
// directory reads as nil.
func treeBytes(t *testing.T, root string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil || d.IsDir() {
			out[rel] = nil
			return err
		}
		out[rel], err = os.ReadFile(path)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// forEachOlderLayout copies each older layout to a directory of its own and
// runs open on the led path in it, which must fail with ledger.ErrOldFormat
// and leave every name and byte under that directory as it was.
func forEachOlderLayout(t *testing.T, open func(path string) error) {
	layouts, err := os.ReadDir(olderLayouts)
	if err != nil || len(layouts) == 0 {
		t.Fatalf("no older layouts (%v)", err)
	}
	for _, layout := range layouts {
		t.Run(layout.Name(), func(t *testing.T) {
			want := treeBytes(t, filepath.Join(olderLayouts, layout.Name()))
			root := t.TempDir()
			for rel, data := range want {
				if data == nil {
					continue // a directory, made for the files in it
				}
				path := filepath.Join(root, rel)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := open(filepath.Join(root, "led")); !errors.Is(err, ledger.ErrOldFormat) {
				t.Fatalf("%v, want ErrOldFormat", err)
			}
			if !reflect.DeepEqual(treeBytes(t, root), want) {
				t.Fatal("the refused ledger changed")
			}
		})
	}
}
