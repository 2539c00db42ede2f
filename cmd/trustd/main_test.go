package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/ledger"
)

func TestTrustFunc(t *testing.T) {
	for _, name := range []string{"average", "weighted", "beta"} {
		fn, err := trustFunc(name, 0.5)
		if err != nil || fn == nil {
			t.Errorf("trustFunc(%q) = %v, %v", name, fn, err)
		}
	}
	if _, err := trustFunc("nope", 0.5); err == nil {
		t.Error("unknown trust function must fail")
	}
	if _, err := trustFunc("weighted", 2); err == nil {
		t.Error("invalid lambda must fail")
	}
}

func TestTesterSelection(t *testing.T) {
	for _, scheme := range []string{"single", "multi", "collusion", "collusion-multi"} {
		ts, err := tester(scheme, 10, 1)
		if err != nil || ts == nil {
			t.Errorf("tester(%q) = %v, %v", scheme, ts, err)
		}
	}
	ts, err := tester("none", 10, 1)
	if err != nil || ts != nil {
		t.Errorf("tester(none) = %v, %v", ts, err)
	}
	if _, err := tester("bogus", 10, 1); err == nil {
		t.Error("unknown scheme must fail")
	}
	if _, err := tester("single", -1, 1); err == nil {
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
	f := feedback.Feedback{Server: "s1", Client: "c1", Rating: feedback.Positive, Time: time.Unix(1700000000, 0).UTC()}
	line, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	line = append(line, '\n')
	row, err := feedback.AppendBinary(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	// segment is one payload under header version v: uvarint length,
	// payload, CRC32-C; a v2 or v3 payload is a batch of f.
	segment := func(v byte, payload []byte) []byte {
		if payload == nil {
			if payload, err = feedback.AppendBatch(nil, []feedback.Feedback{f}, &feedback.BatchDicts{Unscaled: v == '2'}); err != nil {
				t.Fatal(err)
			}
		}
		seg := append([]byte{0xB5, 'H', 'P', 'S', 'E', 'G', v, 0x00}, byte(len(payload)))
		return binary.LittleEndian.AppendUint32(append(seg, payload...), crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	}
	for name, files := range map[string]map[string][]byte{
		"JSON-lines file":      {".": line},
		"JSON-lines directory": {"ledger.000001": line, "ledger.000002": segment('3', nil)},
		"v1 directory":         {"ledger.000001": segment('1', row)},
		"v2 directory":         {"ledger.000001": segment('2', nil), "snapshot.tmp": []byte("half a snapshot")},
		"v2 beside v3":         {"ledger.000001": segment('2', nil), "ledger.000002": segment('3', nil)},
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "led")
			if files["."] == nil {
				if err := os.Mkdir(path, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			for name, data := range files {
				if err := os.WriteFile(filepath.Join(path, name), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			err := run(context.Background(), []string{"-addr", "127.0.0.1:0", "-scheme", "none", "-ledger", path})
			if !errors.Is(err, ledger.ErrOldFormat) {
				t.Fatalf("trustd -ledger on an older layout: %v, want ErrOldFormat", err)
			}
			for name, want := range files {
				if got, err := os.ReadFile(filepath.Join(path, name)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("%s changed (%v)", name, err)
				}
			}
			if ents, err := os.ReadDir(path); files["."] == nil && (err != nil || len(ents) != len(files)) {
				t.Fatalf("the directory holds %d files, want %d (%v)", len(ents), len(files), err)
			}
		})
	}
}

// TestRunIncremental drives a full startup/shutdown cycle with the
// incremental engine enabled; run must come up (installing the per-server
// accumulator factory) and exit cleanly when the context ends.
func TestRunIncremental(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	if err := run(ctx, []string{"-addr", "127.0.0.1:0", "-scheme", "multi", "-incremental"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}
