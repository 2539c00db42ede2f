package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
)

func TestOpStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, full := range workloads {
		w := full.scaled(20)
		hash := func(seed uint64) uint64 {
			wd, err := buildWorld(w, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			return wd.hash()
		}
		a, b, c := hash(1), hash(1), hash(2)
		if a != b {
			t.Errorf("%s: seed 1 gave stream %016x then %016x", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same stream %016x", w.name, a)
		}
	}
}

func TestLanesOwnDisjointServers(t *testing.T) {
	for _, full := range workloads {
		w := full.scaled(20)
		wd, err := buildWorld(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		owner := make(map[int32]int)
		for l, ops := range wd.lanes {
			lo, hi := w.laneSlice(l)
			for i := range ops {
				for _, s := range ops[i].servers {
					if int(s) < lo || int(s) >= hi {
						t.Fatalf("%s: lane %d op %d touches server %d outside its slice [%d,%d)", w.name, l, i, s, lo, hi)
					}
					if prev, seen := owner[s]; seen && prev != l {
						t.Fatalf("%s: server %d issued by lanes %d and %d", w.name, s, prev, l)
					}
					owner[s] = l
				}
			}
		}
		if _, hi := w.laneSlice(w.lanes() - 1); hi != w.servers {
			t.Errorf("%s: lane slices cover %d of %d servers", w.name, hi, w.servers)
		}
	}
}

func TestProcParsers(t *testing.T) {
	// The command name holds spaces and a ')' to make field counting from
	// the last parenthesis matter.
	stat := []byte("4242 (trust d) x) S 1 4242 4242 0 -1 4194560 1500 0 3 0 731 269 0 0 20 0 9 0 123456 1234567890 2345 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 0 0 0 0 0 0\n")
	u, s, err := parseStat(stat)
	if err != nil || u != 731 || s != 269 {
		t.Errorf("parseStat = %d, %d, %v; want 731, 269", u, s, err)
	}
	if _, _, err := parseStat([]byte("garbage")); err == nil {
		t.Error("parseStat accepted a line without a command field")
	}
	status := []byte("Name:\ttrustd\nVmPeak:\t  999999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\nThreads:\t9\nvoluntary_ctxt_switches:\t1200\nnonvoluntary_ctxt_switches:\t34\n")
	got := parseStatus(status, "VmHWM", "Threads", "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches", "Missing")
	want := map[string]uint64{"VmHWM": 123456, "Threads": 9, "voluntary_ctxt_switches": 1200, "nonvoluntary_ctxt_switches": 34}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseStatus = %v, want %v", got, want)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 99}, {1000, 99}, {999, 100 * (1 - 10.0/999)}, {100, 90}, {40, 75}, {20, 50}, {3, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if c.n > 20 {
			if beyond := float64(c.n) * (1 - tailPercentile(c.n)/100); beyond < 10-1e-9 {
				t.Errorf("tailPercentile(%d) leaves %.2f samples beyond", c.n, beyond)
			}
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	if p50, p90 := percentile(sorted, 50), percentile(sorted, 90); p50 != 50 || p90 != 90 {
		t.Errorf("nearest-rank percentiles of 1..100: p50=%v p90=%v", p50, p90)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},   // overlaps a: union is [10,60)
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 130},  // reaches past the root: only [90,100) counts
		{ID: 4, Parent: 1, Name: "a1", Start: 10, End: 25},  // grandchild counts against a only
		{ID: 5, Parent: 0, Name: "d", Start: 200, End: 210}, // wholly outside: counts for nothing
	}
	want := []int64{100 - 50 - 10, 30 - 15, 30, 40, 15, 10}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestProbesArePlacedInsideTheirParent(t *testing.T) {
	tr := newTracer(true)
	p := tr.begin("parent", -1, 7)
	tr.end(p)
	tr.spans[p].Start, tr.spans[p].End = 1000, 1_000_000_000
	a := tr.probe("a", p, 7, func() {})
	b := tr.probe("b", p, 7, func() {})
	sa, sb := tr.spans[a], tr.spans[b]
	if sa.Start != 1000 || sb.Start != sa.End || !sa.Placed || sa.Op != 7 || sb.Parent != p {
		t.Errorf("placed spans %+v %+v do not tile the parent from its start", sa, sb)
	}
	off := newTracer(false)
	ran := false
	if id := off.probe("x", off.begin("p", -1, 0), 0, func() { ran = true }); id != -1 || !ran || len(off.spans) != 0 {
		t.Errorf("tracer off: id=%d ran=%v spans=%d; the work must run and nothing be recorded", id, ran, len(off.spans))
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q2, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q2 != 3 || q3 != 4.5 {
		t.Errorf("quartiles(3,1,4,1,5) = %v %v %v", q1, q2, q3)
	}
}

func TestPlanPutsGeneratorOnHighestCPU(t *testing.T) {
	if p := planCPUs([]int{0, 1}); !reflect.DeepEqual(p, cpuPlan{Generator: []int{1}, Server: []int{0}}) {
		t.Errorf("2 CPUs: %+v", p)
	}
	if p := planCPUs([]int{2, 3, 5, 7}); !reflect.DeepEqual(p, cpuPlan{Generator: []int{7}, Server: []int{2, 3, 5}}) {
		t.Errorf("4 CPUs: %+v", p)
	}
	if p := planCPUs([]int{4}); !reflect.DeepEqual(p, cpuPlan{Generator: []int{4}, Server: []int{4}}) {
		t.Errorf("1 CPU: %+v", p)
	}
	p := cpuPlan{Generator: []int{7}, Server: []int{2, 3, 5}}
	if back, err := decodePlan(p.encode()); err != nil || !reflect.DeepEqual(back, p) {
		t.Errorf("plan round trip: %+v, %v", back, err)
	}
	if got := maskOf([]int{0, 65, 130}).cpus(); !reflect.DeepEqual(got, []int{0, 65, 130}) {
		t.Errorf("mask round trip: %v", got)
	}
}

// TestManifest holds BENCHMARK.json to the tables in this package and to
// the limits the driver enforces.
func TestManifest(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := readManifest(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if want := manifestFromTables(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from the tables; regenerate with `go run . -manifest > ../BENCHMARK.json`")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s %s: unit %q", kind, n, u)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end, %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	known := map[string]bool{}
	for _, w := range workloads {
		check("workload", w.name, "")
		known[w.name] = true
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	e2e := map[string]bool{}
	for _, d := range endToEnd {
		check("end-to-end", d.Name, d.Unit)
		e2e[d.Name] = true
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		check("per-layer", d.Name, d.Unit)
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if !strings.Contains("TMPC", d.Source) || len(d.Source) != 1 {
			t.Errorf("%s: source %q", d.Name, d.Source)
		}
		if d.Moves == "" {
			if len(d.On) != 0 {
				t.Errorf("%s: a control names workloads", d.Name)
			}
			continue
		}
		if !e2e[d.Moves] && !slices.Contains(speedReadings, d.Moves) {
			t.Errorf("%s: moves %q, which is neither an end-to-end metric nor a speed reading", d.Name, d.Moves)
		}
		if len(d.On) == 0 {
			t.Errorf("%s: names no workload", d.Name)
		}
		for _, w := range d.On {
			if !known[w] {
				t.Errorf("%s: names unknown workload %q", d.Name, w)
			}
		}
	}
}

func TestAgreeComparesMediansWithinBounds(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	const probe = "rss_peak_mib"
	write := func(dir string, base, step float64) {
		for _, w := range workloads {
			for i := 0; i < 5; i++ {
				doc := &runDoc{Workload: w.name, Correct: true, Seed: uint64(i), Metrics: map[string]value{}}
				for _, d := range endToEnd {
					doc.Metrics[d.Name] = value{Value: 100 + float64(i), Unit: d.Unit}
				}
				doc.Metrics[probe] = value{Value: base + step*float64(i), Unit: "MiB"}
				if err := writeDoc(dir, doc); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var bound float64
	for _, d := range endToEnd {
		if d.Name == probe {
			bound = d.Bound
		}
	}
	a, b, c, wide := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	write(a, 1000, 1)
	write(b, 1000*(1+bound/2), 1)
	write(c, 1000*(1+2*bound), 1)
	write(wide, 1000, 1000*bound) // quartiles 3 bounds apart around a median of 1+2 bounds
	var out bytes.Buffer
	if ok, err := runAgree(&out, filepath.Join(root, "BENCHMARK.json"), a, b); err != nil || !ok {
		t.Errorf("half a bound apart: agree=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := runAgree(&out, filepath.Join(root, "BENCHMARK.json"), a, c); err != nil || ok {
		t.Errorf("two bounds apart: agree=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "| NO |") {
		t.Errorf("disagreement not shown:\n%s", out.String())
	}
	out.Reset()
	if ok, err := runAgree(&out, filepath.Join(root, "BENCHMARK.json"), wide, wide); err != nil || ok || !strings.Contains(out.String(), "| unresolved |") {
		t.Errorf("equal medians under a spread wider than the bound: agree=%v err=%v\n%s", ok, err, out.String())
	}
}

// TestQuickRunsEveryWorkload builds trustd and drives all five workloads at
// 1/20 scale, end to end and traced, through the same run function main
// uses. Only the generator's own pinning (a re-exec) is left out.
func TestQuickRunsEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("starts trustd subprocesses")
	}
	allowed, err := allowedCPUs()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []int{0, 1} {
			ok, err := run(context.Background(), options{workload: w.name, seed: 1, seconds: 1, trace: trace, quick: true, out: out}, planCPUs(allowed))
			if err != nil || !ok {
				t.Fatalf("%s trace=%d: ok=%v err=%v", w.name, trace, ok, err)
			}
		}
		b, err := os.ReadFile(filepath.Join(out, "trace_"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc traceDoc
		if err := json.Unmarshal(b, &doc); err != nil || len(doc.Spans) == 0 || doc.Workload != w.name {
			t.Errorf("%s: trace file: %d spans, err %v", w.name, len(doc.Spans), err)
		}
	}
	docs, err := filepath.Glob(filepath.Join(out, "run_*.json"))
	if err != nil || len(docs) != 2*len(workloads) {
		t.Errorf("%d run documents, want %d (%v)", len(docs), 2*len(workloads), err)
	}
}
