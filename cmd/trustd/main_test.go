package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
	"honestplayer/internal/repclient"
)

// startAndStop runs trustd with args under a context that is already
// cancelled, so the node starts and stops at once, and returns its log.
func startAndStop(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var logged lockedBuffer
	defer func(w io.Writer) { stderr = w }(stderr)
	stderr = &logged
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...))
	return logged.String(), err
}

// TestTrustFunc: -trust and -lambda pick the trust function the node serves.
func TestTrustFunc(t *testing.T) {
	log, err := startAndStop(t, "-trust", "weighted", "-lambda", "0.25")
	if err != nil || !strings.Contains(log, "reputation server (multi+weighted(λ=0.25))") {
		t.Fatalf("-trust weighted -lambda 0.25: %v\n%s", err, log)
	}
	if _, err := startAndStop(t, "-trust", "nope"); err == nil {
		t.Error("unknown trust function must fail")
	}
	if _, err := startAndStop(t, "-trust", "weighted", "-lambda", "2"); err == nil {
		t.Error("invalid lambda must fail")
	}
}

// TestTesterSelection: -scheme and -window pick the tester the node serves.
func TestTesterSelection(t *testing.T) {
	for scheme, name := range map[string]string{"collusion-multi": "collusion-multi+average", "none": "average"} {
		log, err := startAndStop(t, "-scheme", scheme)
		if err != nil || !strings.Contains(log, "reputation server ("+name+")") {
			t.Errorf("-scheme %s: %v\n%s", scheme, err, log)
		}
	}
	if _, err := startAndStop(t, "-scheme", "bogus"); err == nil {
		t.Error("unknown scheme must fail")
	}
	if _, err := startAndStop(t, "-scheme", "single", "-window", "-1"); err == nil {
		t.Error("invalid window must fail")
	}
}

// TestFinalStatsIsTheMetriczDocument: the "final stats" line a stopping node
// logs is the document its /metricz served, ledger and top_resident blocks
// included.
func TestFinalStatsIsTheMetriczDocument(t *testing.T) {
	var logged lockedBuffer
	defer func(w io.Writer) { stderr = w }(stderr)
	stderr = &logged

	var served map[string]bool
	t.Run("durable", func(t *testing.T) { // its cleanup stops the node
		n := startNode(t, metriczConfigs[1].flags)
		n.drive(t)
		served = flatten(n.scrape(t))
	})
	_, line, ok := strings.Cut(logged.String(), "final stats: ")
	if !ok {
		t.Fatalf("no final stats line in the log:\n%s", logged.String())
	}
	line, _, _ = strings.Cut(line, "\n")
	var doc map[string]any
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatalf("final stats line is not a JSON document: %v\n%s", err, line)
	}
	if got := flatten(doc); !reflect.DeepEqual(got, served) || !got["ledger.records"] || !got["top_resident[].bytes"] {
		t.Fatalf("final stats keys %v\ndiffer from /metricz's %v", sortedKeys(got), sortedKeys(served))
	}
}

// lockedBuffer is a bytes.Buffer the node's goroutines may log to at once.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestOldLedgerRefused: a -ledger path in a layout an earlier revision wrote
// stops the node at start with ledger.ErrOldFormat, and every file under it
// keeps its name and bytes.
func TestOldLedgerRefused(t *testing.T) {
	forEachOlderLayout(t, func(path string) error {
		_, err := startAndStop(t, "-scheme", "none", "-ledger", path)
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

// TestRunIncremental drives a full startup/shutdown cycle with the
// deprecated -incremental flag: it still parses (and is ignored), so run must
// come up and exit cleanly when the context ends.
func TestRunIncremental(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-scheme", "multi", "-incremental"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestSnapshotOnShutdown: a node stopped with -snapshot-on-shutdown after a
// submit boots again from the snapshot it wrote; without the flag, the next
// boot replays the ledger. Either way the record is there.
func TestSnapshotOnShutdown(t *testing.T) {
	for _, tc := range []struct {
		flags []string
		want  string
	}{{nil, "replay"}, {[]string{"-snapshot-on-shutdown"}, "snapshot"}} {
		t.Run(tc.want, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ledger")
			flags := func(*testing.T, string) []string { return append([]string{"-ledger", dir}, tc.flags...) }
			t.Run("first boot", func(t *testing.T) {
				n := startNode(t, flags) // stopped when this subtest ends
				cl, err := repclient.Dial(n.addr, repclient.WithTimeout(10*time.Second))
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = cl.Close() }()
				rec := feedback.Feedback{Time: time.Unix(1700000000, 0).UTC(), Server: "s", Client: "c", Rating: feedback.Positive}
				if stored, err := cl.Submit(rec); err != nil || !stored {
					t.Fatalf("submit: stored %v, %v", stored, err)
				}
			})
			led, _ := startNode(t, flags).scrape(t)["ledger"].(map[string]any)
			if led["boot_mode"] != tc.want || led["records"] != 1.0 {
				t.Fatalf("second boot: ledger.boot_mode %v, ledger.records %v; want %q and 1", led["boot_mode"], led["records"], tc.want)
			}
		})
	}
}

// TestMetricsAddrTaken: a -metrics-addr another process holds stops
// start-up with an error naming the flag, instead of leaving a node that
// serves without /metricz; the log never claims the endpoint.
func TestMetricsAddrTaken(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = held.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var logged lockedBuffer
	defer func(w io.Writer) { stderr = w }(stderr)
	stderr = &logged
	err = run(ctx, []string{"-addr", "127.0.0.1:0", "-scheme", "none", "-metrics-addr", held.Addr().String()})
	if err == nil || !strings.Contains(err.Error(), "-metrics-addr") {
		t.Fatalf("run with a held metrics port: err = %v, want one naming -metrics-addr", err)
	}
	if ctx.Err() != nil {
		t.Fatal("run served until its context ended")
	}
	if strings.Contains(logged.String(), "metrics on") {
		t.Errorf("the log claims the held port:\n%s", logged.String())
	}
}

// TestMemBudgetNeedsSnapshots: -mem-budget is refused without -ledger and
// without -snapshot-every — only a snapshot empties the ledger's tail index,
// which the budget does not charge — before anything is opened.
func TestMemBudgetNeedsSnapshots(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ledger")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-mem-budget", "1MiB"}, "-mem-budget requires -ledger"},
		{[]string{"-mem-budget", "1MiB", "-ledger", dir}, "-mem-budget requires -snapshot-every"},
		{[]string{"-mem-budget", "1MiB", "-ledger", dir, "-snapshot-every", "0"}, "-mem-budget requires -snapshot-every"},
	} {
		if _, err := startAndStop(t, tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want %q", tc.args, err, tc.want)
		}
	}
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a refused start touched the ledger directory: %v", err)
	}
	var logged lockedBuffer
	defer func(w io.Writer) { stderr = w }(stderr)
	stderr = &logged
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err := run(ctx, []string{"-addr", "127.0.0.1:0", "-mem-budget", "1MiB", "-ledger", dir, "-snapshot-every", "100"})
	if err != nil || !strings.Contains(logged.String(), "memory budget") {
		t.Fatalf("-mem-budget with -ledger and -snapshot-every: %v\n%s", err, logged.String())
	}
}

// TestParseSize: -mem-budget's sizes, binary units, and every size whose
// byte count leaves int64 refused rather than wrapped.
func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		fail bool
	}{
		{in: "", want: 0},
		{in: "0", want: 0},
		{in: "0G", want: 0},
		{in: "512", want: 512},
		{in: "512B", want: 512},
		{in: "1k", want: 1 << 10},
		{in: "1KB", want: 1 << 10},
		{in: "1KiB", want: 1 << 10},
		{in: "64MiB", want: 64 << 20},
		{in: "3mb", want: 3 << 20},
		{in: " 2 G ", want: 2 << 30},
		{in: "1 GiB", want: 1 << 30},
		{in: "8589934591G", want: 8589934591 << 30},
		{in: "9007199254740991K", want: 9007199254740991 << 10},
		{in: "9223372036854775807", want: math.MaxInt64},
		{in: "-1", fail: true},
		{in: "-1K", fail: true},
		{in: "K", fail: true},
		{in: "1T", fail: true},
		{in: "1.5G", fail: true},
		{in: "9223372036854775808", fail: true},
		{in: "17179869185G", fail: true}, // wrapped to 1 GiB
		{in: "8589934592G", fail: true},  // wrapped to -2^63
		{in: "9223372036854775807K", fail: true},
		{in: "9007199254740992K", fail: true},
	} {
		got, err := parseSize(tc.in)
		if tc.fail {
			if err == nil {
				t.Errorf("parseSize(%q) = %d, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
}
