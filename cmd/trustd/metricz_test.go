package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"honestplayer/internal/feedback"
	"honestplayer/internal/repclient"
)

// metriczConfigs are the node shapes whose /metricz key trees
// testdata/metricz-keys.txt pins, in the order of its columns.
var metriczConfigs = []struct {
	name  string
	flags func(t *testing.T, addr string) []string
}{
	{"bare", func(*testing.T, string) []string { return nil }},
	{"durable", func(t *testing.T, _ string) []string {
		return []string{"-ledger", filepath.Join(t.TempDir(), "ledger"), "-mem-budget", "64MiB",
			"-snapshot-every", "50"}
	}},
	{"cluster", func(_ *testing.T, addr string) []string {
		return []string{"-node-id", "a", "-peers", "a=" + addr}
	}},
	{"gossip", func(_ *testing.T, addr string) []string {
		return []string{"-interval", "10ms", "-peers", addr}
	}},
}

// TestMetriczKeyTree scrapes the /metricz handler of a real trustd in each
// configuration and compares the document's flattened key paths with the
// golden matrix: every path marked + in a configuration's column is served,
// and nothing else is. bench/ and trustctl read these paths, so a key that
// goes missing is a metric that silently reads absent, and a key that
// appears is a change to what they read.
func TestMetriczKeyTree(t *testing.T) {
	golden := readKeyMatrix(t, filepath.Join("testdata", "metricz-keys.txt"))
	for col, cfg := range metriczConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			n := startNode(t, cfg.flags)
			n.drive(t)
			got := flatten(n.scrape(t))
			want := map[string]bool{}
			for path, marks := range golden {
				if marks[col] {
					want[path] = true
				}
			}
			for _, p := range sortedKeys(want) {
				if !got[p] {
					t.Errorf("/metricz lost %s", p)
				}
			}
			for _, p := range sortedKeys(got) {
				if !want[p] {
					t.Errorf("/metricz grew %s (not marked + in the golden matrix)", p)
				}
			}
		})
	}
}

// node is one trustd started by run, with its serving and metrics addresses.
type node struct {
	addr, metrics string
}

// startNode runs trustd on free loopback ports with the configuration's
// flags, waits until /metricz answers, and stops the node when the test
// ends.
func startNode(t *testing.T, flags func(*testing.T, string) []string) node {
	t.Helper()
	n := node{addr: freeAddr(t), metrics: freeAddr(t)}
	args := append([]string{"-addr", n.addr, "-metrics-addr", n.metrics}, flags(t, n.addr)...)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, args) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("run %v: %v", args, err)
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + n.metrics + "/metricz")
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return n
			}
		}
		select {
		case err := <-done:
			t.Fatalf("trustd %v exited before serving /metricz: %v", args, err)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatalf("trustd %v: /metricz not up after 30s: %v", args, err)
		}
	}
}

// drive submits records and assesses servers from one client while the test
// scrapes /metricz, so the race detector sees renders concurrent with the
// counters they read moving.
func (n node) drive(t *testing.T) {
	t.Helper()
	cl, err := repclient.Dial(n.addr, repclient.WithTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	errc := make(chan error, 1)
	go func() {
		base := time.Unix(1700000000, 0).UTC()
		for i := 0; i < 40; i++ {
			batch := make([]feedback.Feedback, 8)
			for j := range batch {
				batch[j] = feedback.Feedback{
					Time:   base.Add(time.Duration(i*8+j) * time.Second),
					Server: feedback.EntityID(fmt.Sprintf("s%d", j%4)),
					Client: feedback.EntityID(fmt.Sprintf("c%d", (i+j)%5)),
					Rating: feedback.Positive,
				}
			}
			if _, err := cl.SubmitBatchReport(batch); err != nil {
				errc <- err
				return
			}
		}
		if _, err := cl.Submit(feedback.Feedback{Time: base, Server: "s9", Client: "c0", Rating: feedback.Negative}); err != nil {
			errc <- err
			return
		}
		_, err := cl.Assess("s0", 0.5)
		errc <- err
	}()
	for {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
			n.scrape(t)
		}
	}
}

// scrape fetches and decodes one /metricz document.
func (n node) scrape(t *testing.T) map[string]any {
	t.Helper()
	resp, err := http.Get("http://" + n.metrics + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/metricz Content-Type = %q", ct)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode /metricz: %v", err)
	}
	return doc
}

// flatten lists a decoded document's leaf paths: object keys joined by dots,
// an array's elements as [], and every key under per_type (a request type),
// cluster.peers or cluster.peer_rtt_ms (a peer ID) as *.
func flatten(doc map[string]any) map[string]bool {
	out := map[string]bool{}
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, sub := range v {
				if path == "per_type" || path == "cluster.peers" || path == "cluster.peer_rtt_ms" {
					k = "*"
				}
				if path != "" {
					k = path + "." + k
				}
				walk(k, sub)
			}
		case []any:
			for _, sub := range v {
				walk(path+"[]", sub)
			}
		default:
			out[path] = true
		}
	}
	walk("", doc)
	return out
}

// readKeyMatrix parses the golden matrix: one path per line followed by one
// + (served) or - (absent) per configuration, # comments ignored.
func readKeyMatrix(t *testing.T, path string) map[string][]bool {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = f.Close() }()
	out := map[string][]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 1+len(metriczConfigs) {
			t.Fatalf("%s: %q: want a path and %d marks", path, sc.Text(), len(metriczConfigs))
		}
		marks := make([]bool, len(metriczConfigs))
		for i, m := range fields[1:] {
			if m != "+" && m != "-" {
				t.Fatalf("%s: %q: mark %q is neither + nor -", path, sc.Text(), m)
			}
			marks[i] = m == "+"
		}
		out[fields[0]] = marks
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		t.Fatal(err)
	}
	return addr
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
