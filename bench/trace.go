package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call at a layer boundary of the traced replay.
//
// The replay runs outside trustd, so it can only time public calls. A
// top-level call such as Server.AssessBatch is a measured span. What happens
// beneath it is reached by calling the next layer's public entry points
// again on the same inputs right after the parent returned (a probe): the
// probe's duration is measured, and the span is placed inside the parent's
// interval, after its earlier siblings, so that one self-time rule — a
// span's duration minus the part of its interval its children cover —
// serves measured and placed spans alike. Placed spans say so.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Op     int    `json:"op"`     // the op all spans of one request share; -1 outside any op
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Placed bool   `json:"placed,omitempty"`

	fill int64 // duration of the placed children so far
}

// tracer keeps spans in memory; off, it records nothing and the replay does
// the same work, which is how tracing overhead is measured.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// probe runs fn and records it as a child placed inside the finished span
// parent.
func (t *tracer) probe(name string, parent, op int, fn func()) int {
	if !t.on {
		fn()
		return -1
	}
	start := time.Now()
	fn()
	d := int64(time.Since(start))
	p := &t.spans[parent]
	s := span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: p.Start + p.fill, Placed: true}
	s.End = s.Start + d
	p.fill += d
	t.spans = append(t.spans, s)
	return s.ID
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children are not
// counted twice, and a child reaching outside its parent only counts for the
// part inside.
func selfTimes(spans []span) []int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, end int64
		end = s.Start
		for _, c := range iv {
			if c[1] <= end {
				continue
			}
			covered += c[1] - max(c[0], end)
			end = c[1]
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// spanTotals sums durations, self times and counts by span name.
type spanTotals struct {
	dur, self map[string]int64
	count     map[string]int
}

func totalsOf(spans []span) spanTotals {
	t := spanTotals{dur: map[string]int64{}, self: map[string]int64{}, count: map[string]int{}}
	self := selfTimes(spans)
	for i, s := range spans {
		t.dur[s.Name] += s.End - s.Start
		t.self[s.Name] += self[i]
		t.count[s.Name]++
	}
	return t
}

// traceDoc is the file the traced run leaves under bench/out/.
type traceDoc struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Ops      int    `json:"ops"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

func writeTrace(dir string, wd *world, ops int, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+wd.w.name+".json")
	b, err := json.Marshal(traceDoc{Workload: wd.w.name, Seed: wd.seed, Ops: ops, Spans: spans,
		Note: "in-process replay of the first tenth of each lane's op stream on one goroutine; placed spans are probes re-run on the same inputs after their parent returned"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}
