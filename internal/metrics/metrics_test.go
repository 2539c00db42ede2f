package metrics

import (
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRenderNestsByPath(t *testing.T) {
	reg := New()
	var served atomic.Uint64
	served.Add(3)
	reg.Counter("incremental.served", &served)
	reg.Gauge("incremental.enabled", func() any { return true })
	reg.Gauge("errors", func() any { return 0 })
	reg.Gauge("ledger.group_commit.size_p50", func() any { return uint64(8) })
	reg.Gauge("cache", func() any {
		return struct {
			Hits int `json:"hits"`
		}{2}
	})
	reg.Gauge("cluster.node", func() any { return OmitZero("") }) // absent: omitempty
	reg.Gauge("top_resident", func() any { return nil })          // absent
	reg.Gauge("gone.a", func() any { return nil })                // a group with no leaf renders nothing
	reg.Gauge("per_type", func() any { return map[string]int{"b": 2, "a": 1} })

	raw, err := json.Marshal(reg)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"cache":{"hits":2},"errors":0,"incremental":{"enabled":true,"served":3},` +
		`"ledger":{"group_commit":{"size_p50":8}},"per_type":{"a":1,"b":2}}`
	if string(raw) != want {
		t.Fatalf("rendered\n %s\nwant\n %s", raw, want)
	}

	// A second registration of a path replaces its reader; Value reads one leaf.
	served.Add(1)
	reg.Gauge("errors", func() any { return 5 })
	if got := reg.Value("incremental.served"); got != uint64(4) {
		t.Fatalf("Value(incremental.served) = %v, want 4", got)
	}
	if got := reg.Value("errors"); got != 5 {
		t.Fatalf("Value(errors) = %v, want the replacing reader's 5", got)
	}
	if got := reg.Value("incremental"); got != nil {
		t.Fatalf("Value of a group = %v, want nil", got)
	}
}

func TestLeafAndGroupConflictPanics(t *testing.T) {
	for _, paths := range [][2]string{{"a.b", "a"}, {"a", "a.b"}, {"a.b", "a.b.c"}} {
		t.Run(fmt.Sprint(paths), func(t *testing.T) {
			reg := New()
			reg.Gauge(paths[0], func() any { return 1 })
			defer func() {
				if recover() == nil {
					t.Fatalf("registering %q beside %q did not panic", paths[1], paths[0])
				}
			}()
			reg.Gauge(paths[1], func() any { return 1 })
		})
	}
	// Siblings sharing a name prefix are not nested.
	reg := New()
	reg.Gauge("submit_batch", func() any { return 1 })
	reg.Gauge("submit_batch_items", func() any { return 1 })
}

func TestOmitZero(t *testing.T) {
	if OmitZero(0) != nil || OmitZero("") != nil || OmitZero(uint64(0)) != nil {
		t.Fatal("a zero value must read as absent")
	}
	if OmitZero(2) != 2 || OmitZero("n1") != "n1" {
		t.Fatal("a non-zero value must read as itself")
	}
}

// TestConcurrentRender renders while counters move and readers are
// registered and replaced — the -race job's target.
func TestConcurrentRender(t *testing.T) {
	reg := New()
	var n atomic.Uint64
	reg.Counter("requests", &n)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			n.Add(1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			reg.Gauge(fmt.Sprintf("g.k%d", i%10), func() any { return i })
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if _, err := json.Marshal(reg); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := reg.Value("requests"); got != uint64(1000) {
		t.Fatalf("requests = %v, want 1000", got)
	}
}
