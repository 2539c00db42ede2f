package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
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
