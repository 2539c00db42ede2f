package main

import (
	"context"
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
