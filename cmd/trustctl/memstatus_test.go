package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// serveMetricz answers GET /metricz with doc, as a trustd -metrics-addr does.
func serveMetricz(t *testing.T, doc []byte) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metricz" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(doc)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestMemStatus reads a /metricz document recorded from a trustd running
// -ledger -mem-budget 48KiB after 120 servers of 5 records each and three
// assesses of evicted servers.
func TestMemStatus(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "metricz-budget.json"))
	if err != nil {
		t.Fatal(err)
	}
	url := serveMetricz(t, raw)

	var out strings.Builder
	if err := run([]string{"mem-status", "-metrics", url}, &out); err != nil {
		t.Fatal(err)
	}
	want := `memory budget: 48.00 KiB
  resident: 69 servers, 47.62 KiB accounted (99.2% of budget)
  evicted:  51 servers
  evictions 54, reinstates 3
  fault-in waits 0, errors 0
  ledger: snapshot seq 1
top resident servers by accounted bytes:
  srv-000                       708 B  5 records
`
	if got := out.String(); !strings.HasPrefix(got, want) || strings.Count(got, " records\n") != 10 {
		t.Fatalf("mem-status output:\n%s\nwant it to open with:\n%s\nand list 10 servers", got, want)
	}

	// -json prints the lifecycle block and top_resident as served, and the
	// ledger's snapshot sequence.
	out.Reset()
	if err := run([]string{"mem-status", "-metrics", strings.TrimPrefix(url, "http://"), "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var doc, got map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatalf("-json output: %v\n%s", err, out.String())
	}
	wantJSON := map[string]any{
		"lifecycle":    doc["lifecycle"],
		"ledger":       map[string]any{"snapshot_seq": 1.0},
		"top_resident": doc["top_resident"],
	}
	if !reflect.DeepEqual(got, wantJSON) {
		t.Fatalf("-json output:\n%s\nwant %v", out.String(), wantJSON)
	}
}

// TestMemStatusDisabled: a node without -mem-budget serves no ledger block
// and no top_resident; mem-status says the lifecycle is off.
func TestMemStatusDisabled(t *testing.T) {
	url := serveMetricz(t, []byte(`{"connections": 1, "lifecycle": {"enabled": false, "resident": 3,
		"evicted": 0, "resident_bytes": 2124, "budget_bytes": 0, "evictions": 0,
		"reinstates": 0, "fault_waits": 0, "fault_errors": 0}}`))
	var out strings.Builder
	if err := run([]string{"mem-status", "-metrics", url}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != "memory lifecycle: disabled (start trustd with -mem-budget and -ledger)\n" {
		t.Fatalf("mem-status output: %q", got)
	}
	out.Reset()
	if err := run([]string{"mem-status", "-metrics", url, "-json"}, &out); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatalf("-json output: %v\n%s", err, out.String())
	}
	if got["ledger"] != nil || got["top_resident"] != nil || got["lifecycle"].(map[string]any)["resident"] != 3.0 {
		t.Fatalf("-json output:\n%s", out.String())
	}

	if err := run([]string{"mem-status", "-metrics", url + "/nowhere"}, &out); err == nil {
		t.Fatal("a metrics URL that answers 404 must fail")
	}
}

// TestClusterStatus: cluster-status prints the /metricz cluster block, the
// node's whole view of its cluster, and needs no wire connection.
func TestClusterStatus(t *testing.T) {
	url := serveMetricz(t, []byte(`{"connections": 4, "cluster": {"enabled": true, "node": "n2",
		"replicas": 2, "vnodes": 64, "forwarded": 7, "forward_errors": 0,
		"peers": {"n1": "10.0.0.1:7700", "n2": "10.0.0.2:7700"}}}`))
	var out strings.Builder
	if err := run([]string{"-addr", "127.0.0.1:1", "cluster-status", "-metrics", url}, &out); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(out.String()), &got); err != nil {
		t.Fatalf("output: %v\n%s", err, out.String())
	}
	want := map[string]any{"enabled": true, "node": "n2", "replicas": 2.0, "vnodes": 64.0, "forwarded": 7.0,
		"forward_errors": 0.0, "peers": map[string]any{"n1": "10.0.0.1:7700", "n2": "10.0.0.2:7700"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster-status printed\n%s", out.String())
	}
}
