package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output: what the driver reads.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runDoc is the JSON document one run leaves under bench/out/.
type runDoc struct {
	Workload   string `json:"workload"`
	Why        string `json:"why"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Scale      string `json:"scale"`
	Trace      bool   `json:"trace"`
	StreamHash string `json:"op_stream_hash"`
	Started    string `json:"started"`

	NProc              int     `json:"nproc"`
	CPUs               cpuPlan `json:"cpus"`
	GeneratorMaxProcs  int     `json:"generator_gomaxprocs"`
	TrustdMaxProcs     int     `json:"trustd_gomaxprocs"`
	GoVersion          string  `json:"go_version"`
	Kernel             string  `json:"kernel"`
	LedgerDir          string  `json:"ledger_dir"`
	LedgerFilesystem   string  `json:"ledger_filesystem"`
	LedgerFlushPolicy  string  `json:"ledger_flush_policy"`
	Nodes              []*node `json:"trustd"`
	ServersPerWorkload int     `json:"servers"`
	RecordsPerServer   int     `json:"seeded_records_per_server"`
	FramesPerLane      int     `json:"frames_per_lane_per_rep"`
	Lanes              int     `json:"lanes"`

	// The fixed integer spin loop timed on the server CPU before the first
	// and after the last repetition: host drift shows here, a program change
	// does not.
	SpinMsBefore float64 `json:"host_spin_ms_before"`
	SpinMsAfter  float64 `json:"host_spin_ms_after"`

	Reps      []*repResult `json:"reps"`
	Attempted int          `json:"attempted"`
	Good      int          `json:"good"`
	Failed    int          `json:"failed"`
	Correct   bool         `json:"correct"`
	Error     string       `json:"error,omitempty"`

	Metrics   map[string]value  `json:"metrics"`
	Absent    map[string]string `json:"absent,omitempty"` // per-layer metric → why it reads 0 here
	TraceFile string            `json:"trace_file,omitempty"`
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile is the percentile reported as the latency tail for n
// samples: p99 when at least ten samples lie beyond it, otherwise the
// highest percentile that still has ten beyond, and never below the median.
func tailPercentile(n int) float64 {
	if n >= 1000 {
		return 99
	}
	if n <= 20 {
		return 50
	}
	return 100 * (1 - 10/float64(n))
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// trustdTicks is the CPU all trustd processes used between two readings.
func trustdTicks(before, after procSnap) (user, sys uint64) {
	for i := range after.proc {
		user += after.proc[i].UserTicks - before.proc[i].UserTicks
		sys += after.proc[i].SysTicks - before.proc[i].SysTicks
	}
	return user, sys
}

const msPerTick = 1000.0 / userHz

// repReadings are one repetition's plain readings: set-up seconds, peak
// resident memory, bytes trustd moved through read and write calls per
// verified item, verified items per wall second of the timed stream, and
// trustd CPU over the stream per 1000 verified items.
func repReadings(r *repResult) map[string]float64 {
	return map[string]float64{
		"setup_s":           r.SetupS,
		"rss_peak_mib":      r.RSSMiB,
		"io_bytes_per_item": float64(r.IOBytes) / float64(r.Good),
		"goodput_items_s":   float64(r.Good) / r.WallS,
		"cpu_ms_per_kitem":  r.CPUS * 1e6 / float64(r.Good),
	}
}

// medianReading is the median, over the run's repetitions, of one reading.
func medianReading(reps []*repResult, name string) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = repReadings(r)[name]
	}
	return median(v)
}

// endToEndMetrics reports each end-to-end metric as the median over the
// run's repetitions of the repetition's plain reading.
func endToEndMetrics(reps []*repResult) map[string]value {
	out := map[string]value{}
	for _, d := range endToEnd {
		out[d.Name] = value{Value: medianReading(reps, d.Name), Unit: d.Unit}
	}
	return out
}

// diff sums, over all nodes, how far the number at path moved across the
// timed stream; ok is false when no node exports it.
func diff(r *repResult, path ...string) (float64, bool) {
	var total float64
	found := false
	for i := range r.after.metricz {
		a, okA := r.after.metricz[i].num(path...)
		b, okB := r.before.metricz[i].num(path...)
		if okA && okB {
			total += a - b
			found = true
		}
	}
	return total, found
}

// layerSet collects per-layer values; a metric never set is reported as 0
// with the reason it is absent.
type layerSet struct {
	vals   map[string]float64
	absent map[string]string
}

func newLayerSet() *layerSet {
	return &layerSet{vals: map[string]float64{}, absent: map[string]string{}}
}

func (s *layerSet) set(name string, v float64) { s.vals[name] = v }

func (s *layerSet) setIf(name string, v float64, ok bool, why string) {
	if ok {
		s.vals[name] = v
	} else {
		s.absent[name] = why
	}
}

func ratio(num, den float64) (float64, bool) {
	if den == 0 {
		return 0, false
	}
	return num / den, true
}

// liveLayers fills the per-layer metrics that come from the live
// repetition: generator-side timings (C), /metricz differences over the
// timed stream (M) and /proc (P).
func liveLayers(s *layerSet, r *repResult, wd *world) {
	kitems := float64(r.Good) / 1000
	const noKey = "key not exported by /metricz"
	for _, name := range speedReadings {
		s.set(name, repReadings(r)[name])
	}

	rtts := append([]float64(nil), r.rttMs...)
	sort.Float64s(rtts)
	tail := tailPercentile(len(rtts))
	s.set("repclient.rtt_p50_ms", percentile(rtts, 50))
	s.set("repclient.rtt_p99_ms", percentile(rtts, tail))
	s.set("repclient.rtt_tail_pct", tail)
	s.set("repclient.rtt_samples", float64(len(rtts)))
	conns, ok := diff(r, "connections")
	s.setIf("repclient.redials", conns, ok, noKey)
	genCPU := r.after.selfCPU - r.before.selfCPU
	s.set("repclient.gen_cpu_ms_per_kitem", genCPU*1000/kitems)
	s.set("repclient.gen_busy_share", genCPU/r.WallS)

	var fwd float64
	for _, t := range []string{"assess", "submit", "assess.batch", "submit.batch"} {
		n, ok := diff(r, "per_type", t, "requests")
		s.setIf("service.requests."+t, n, ok, "no "+t+" request reached a node")
		// Latency quantiles are cumulative since the node started, so they
		// include set-up frames of the same type; read on the door node.
		p99, ok := r.after.metricz[0].num("per_type", t, "p99_ms")
		s.setIf("service.server_p99_ms."+t, p99, ok, "no "+t+" request reached the door node")
	}
	for _, t := range []string{"fwd.assess", "fwd.submit", "fwd.submit.batch", "fwd.assess.batch"} {
		n, _ := diff(r, "per_type", t, "requests")
		fwd += n
	}
	s.setIf("service.requests.fwd", fwd, wd.w.nodes > 1, "single node: nothing is forwarded")
	errs, ok := diff(r, "errors")
	s.setIf("service.errors", errs, ok, noKey)

	for name, path := range map[string][]string{
		"repserver.incremental_served":   {"incremental", "served"},
		"repserver.fallbacks":            {"incremental", "fallbacks"},
		"repserver.batch_items":          {"batch_items"},
		"repserver.submit_batch_items":   {"submit_batch_items"},
		"repserver.submit_batch_rejects": {"submit_batch_rejects"},
		"assesscache.invalidations":      {"cache", "invalidations"},
		"cluster.forwarded":              {"cluster", "forwarded"},
		"cluster.merged_assess":          {"cluster", "merged_assess"},
		"cluster.digest_mismatch":        {"cluster", "digest_mismatch"},
	} {
		v, ok := diff(r, path...)
		s.setIf(name, v, ok, noKey)
	}
	hits, ok1 := diff(r, "cache", "hits")
	misses, ok2 := diff(r, "cache", "misses")
	share, ok3 := ratio(hits, hits+misses)
	s.setIf("assesscache.hit_share", share, ok1 && ok2 && ok3, "the assessment cache saw no lookup")

	if wd.w.ledger {
		flushes, ok := diff(r, "ledger", "group_commit", "flushes")
		s.setIf("ledger.flushes", flushes, ok, noKey)
		co, ok := diff(r, "ledger", "group_commit", "coalesced")
		s.setIf("ledger.coalesced_flushes", co, ok, noKey)
		p50, ok := r.after.metricz[0].num("ledger", "group_commit", "size_p50")
		s.setIf("ledger.group_size_p50", p50, ok, noKey)
		segs, ok := r.after.metricz[0].num("ledger", "segments")
		s.setIf("ledger.segments", segs, ok, noKey)
		active, okA := diff(r, "ledger", "active_bytes")
		sealed, okS := diff(r, "ledger", "sealed_bytes")
		recs, okR := diff(r, "ledger", "records")
		bpr, okB := ratio(active+sealed, recs)
		s.setIf("ledger.bytes_per_record", bpr, okA && okS && okR && okB, noKey)
		s.set("ledger.boot_ms", r.BootS*1000)
		s.set("ledger.reopen_verify_ms", r.ReopenS*1000)
	} else {
		for _, d := range perLayer {
			if strings.HasPrefix(d.Name, "ledger.") && d.Source != "T" {
				s.absent[d.Name] = "no ledger in this workload"
			}
		}
	}

	if wd.w.nodes > 1 {
		var rtt, n float64
		if obj, ok := r.after.metricz[0]["cluster"].(map[string]any); ok {
			if peers, ok := obj["peer_rtt_ms"].(map[string]any); ok {
				for _, v := range peers {
					if f, ok := v.(float64); ok {
						rtt, n = rtt+f, n+1
					}
				}
			}
		}
		mean, ok := ratio(rtt, n)
		s.setIf("cluster.peer_rtt_ms", mean, ok, noKey)
		doorTicks := float64(r.after.proc[0].UserTicks + r.after.proc[0].SysTicks - r.before.proc[0].UserTicks - r.before.proc[0].SysTicks)
		user, sys := trustdTicks(r.before, r.after)
		door, ok := ratio(doorTicks, float64(user+sys))
		s.setIf("cluster.door_cpu_share", door, ok, "no CPU tick elapsed")
	} else {
		for _, name := range []string{"cluster.peer_rtt_ms", "cluster.door_cpu_share"} {
			s.absent[name] = "single node"
		}
	}

	user, sys := trustdTicks(r.before, r.after)
	s.set("proc.user_ms_per_kitem", float64(user)*msPerTick/kitems)
	s.set("proc.sys_ms_per_kitem", float64(sys)*msPerTick/kitems)
	var ctx, calls, threads uint64
	for i := range r.after.proc {
		ctx += r.after.proc[i].CtxSwitches - r.before.proc[i].CtxSwitches
		calls += r.after.proc[i].IOCalls - r.before.proc[i].IOCalls
		threads += max(r.after.proc[i].Threads, r.before.proc[i].Threads)
	}
	s.set("proc.ctx_switches_per_kitem", float64(ctx)/kitems)
	s.set("proc.io_calls_per_kitem", float64(calls)/kitems)
	s.set("proc.threads_peak", float64(threads))
}

// values renders every declared per-layer metric; one that was not measured
// on this workload reads 0 and is listed in absent with the reason.
func (s *layerSet) values() (map[string]value, map[string]string) {
	out := map[string]value{}
	absent := map[string]string{}
	for _, d := range perLayer {
		v, ok := s.vals[d.Name]
		if !ok {
			why := s.absent[d.Name]
			if why == "" {
				why = "not exercised by this workload"
			}
			absent[d.Name] = why
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, absent
}

// printMetrics writes every metric by name and unit, then the result line.
func printMetrics(w io.Writer, doc *runDoc, defs []metricDef) error {
	fmt.Fprintf(w, "workload %s seed %d scale %s: %d reps, %d items attempted, %d good, %d failed; op stream %s\n",
		doc.Workload, doc.Seed, doc.Scale, len(doc.Reps), doc.Attempted, doc.Good, doc.Failed, doc.StreamHash)
	fmt.Fprintf(w, "generator on CPU %v (GOMAXPROCS %d), trustd on CPU %v; ledger filesystem %s\n",
		doc.CPUs.Generator, doc.GeneratorMaxProcs, doc.CPUs.Server, doc.LedgerFilesystem)
	for _, d := range defs {
		v := doc.Metrics[d.Name]
		note := ""
		if why, ok := doc.Absent[d.Name]; ok {
			note = "  (absent: " + why + ")"
		}
		fmt.Fprintf(w, "%-40s %14.4f %s%s\n", d.Name, v.Value, v.Unit, note)
	}
	if !doc.Trace {
		// The speed of the stream moves with the host, so it is printed for
		// the reader and kept out of the result line's bounded metrics.
		for _, name := range speedReadings {
			fmt.Fprintf(w, "%-40s %14.4f (median of %d repetitions; host-dependent, no bound)\n", name, medianReading(doc.Reps, name), len(doc.Reps))
		}
	}
	line, err := json.Marshal(resultLine{Correct: doc.Correct, Attempted: max(doc.Attempted, 1), Failed: doc.Failed, Metrics: doc.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// writeDoc stores the run document under dir with a name that sorts by
// workload and never collides.
func writeDoc(dir string, doc *runDoc) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if doc.Trace {
		mode = "layers"
	}
	path := filepath.Join(dir, fmt.Sprintf("run_%s_%s_seed%d_%d.json", doc.Workload, mode, doc.Seed, time.Now().UnixNano()))
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
