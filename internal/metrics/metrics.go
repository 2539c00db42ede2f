// Package metrics is a node's one registry of named counters and gauges.
// Each layer registers the values it owns under dotted key paths
// ("ledger.group_commit.flushes") and goes on updating them itself, one
// atomic add per counter; the registry reads them only at scrape time, to
// render the nested JSON document /metricz serves. It imports nothing but
// the standard library, so any layer can register into it.
package metrics

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry maps key paths to the readers of their values. A path is a leaf
// or a group of leaves, never both. Safe for concurrent use.
type Registry struct {
	mu    sync.Mutex
	reads map[string]func() any
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{reads: make(map[string]func() any)}
}

// Gauge registers read as the value at path, replacing any reader already
// there. read runs on every render, concurrently with whatever updates what
// it reads; a nil result leaves the key out (omitempty). Making a path both
// a leaf and a group is a bug and panics.
func (r *Registry) Gauge(path string, read func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for q := range r.reads {
		if strings.HasPrefix(q, path+".") || strings.HasPrefix(path, q+".") {
			panic(fmt.Sprintf("metrics: %q and %q: a path is a leaf or a group, not both", path, q))
		}
	}
	r.reads[path] = read
}

// Counter registers the count c, which its owner keeps adding to, at path.
func (r *Registry) Counter(path string, c *atomic.Uint64) {
	r.Gauge(path, func() any { return c.Load() })
}

// Value reads the leaf at path now; nil when none is registered there.
func (r *Registry) Value(path string) any {
	r.mu.Lock()
	read := r.reads[path]
	r.mu.Unlock()
	if read == nil {
		return nil
	}
	return read()
}

// MarshalJSON renders the document: every leaf read once and nested by path,
// keys sorted, values encoded by encoding/json (an integer stays an
// integer). A group none of whose leaves render is left out with them.
func (r *Registry) MarshalJSON() ([]byte, error) {
	r.mu.Lock()
	reads := make(map[string]func() any, len(r.reads))
	for path, read := range r.reads {
		reads[path] = read
	}
	r.mu.Unlock()
	doc := map[string]any{}
	for path, read := range reads {
		v := read()
		if v == nil {
			continue
		}
		keys := strings.Split(path, ".")
		obj := doc
		for _, k := range keys[:len(keys)-1] {
			sub, ok := obj[k].(map[string]any)
			if !ok {
				sub = map[string]any{}
				obj[k] = sub
			}
			obj = sub
		}
		obj[keys[len(keys)-1]] = v
	}
	return json.Marshal(doc)
}

// OmitZero returns v, or nil when v is its type's zero value: a gauge's
// omitempty.
func OmitZero[T comparable](v T) any {
	var zero T
	if v == zero {
		return nil
	}
	return v
}
