// Command bench is the repository's scoreboard: it builds cmd/trustd,
// starts it as pinned subprocesses, drives five seeded closed-loop
// workloads over internal/repclient, verifies every answer, and prints
// end-to-end metrics (or, with -trace 1, per-layer metrics from live
// counters plus an in-process traced replay). See README.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// repsPerRun is how many times a run repeats {fresh trustd processes,
// set-up, the workload's fixed op stream, checks}; every end-to-end metric
// is the median over these repetitions. The count is fixed, so a run is the
// same work whatever the host's speed: when the host slows to half, a run
// takes twice as long, and three repetitions keep the driver's 114 runs
// inside its hour even then. -seconds sizes the stream, not the count.
const repsPerRun = 3

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	quick    bool
	out      string
}

func main() {
	var (
		o        options
		agree    bool
		manifest bool
	)
	flag.StringVar(&o.workload, "workload", "", "workload name: assess_wide, assess_deep, ingest_durable, mixed_skew, cluster3")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for histories and op streams")
	flag.IntVar(&o.seconds, "seconds", 10, "sizes the timed op stream: the frame counts in workload.go are for 10")
	flag.IntVar(&o.trace, "trace", 0, "1 = print per-layer metrics (one live repetition plus the traced in-process replay) instead of end-to-end metrics")
	flag.BoolVar(&o.quick, "quick", false, "1/20 scale smoke run: one repetition")
	flag.StringVar(&o.out, "out", "", "directory for run documents and traces (default bench/out)")
	flag.BoolVar(&agree, "agree", false, "compare two directories of run documents: -agree <setA> <setB>")
	flag.BoolVar(&manifest, "manifest", false, "print BENCHMARK.json as the metric tables define it")
	flag.Parse()

	switch {
	case manifest:
		if err := writeManifest(os.Stdout); err != nil {
			fatal(err)
		}
		return
	case agree:
		if flag.NArg() != 2 {
			fatal(errors.New("-agree takes two directories of run documents"))
		}
		root, err := repoRoot()
		if err != nil {
			fatal(err)
		}
		ok, err := runAgree(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	plan, err := pinSelf()
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ok, err := run(ctx, o, plan)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
	}
	if !ok {
		stop()
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// run performs one benchmark run. It reports whether the run completed with
// every item verified; the error says what went wrong otherwise. trustd
// children are stopped and temp directories removed on every path out.
func run(ctx context.Context, o options, plan cpuPlan) (ok bool, err error) {
	full, err := workloadByName(o.workload)
	if err != nil {
		return false, err
	}
	root, err := repoRoot()
	if err != nil {
		return false, err
	}
	if o.out == "" {
		o.out = filepath.Join(root, "bench", "out")
	}
	if o.seconds < 1 {
		return false, fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	w, scale := full.withFrames(full.frames*o.seconds/runSeconds), "full"
	if o.quick {
		w, scale = full.scaled(20), "quick (1/20)"
	}
	bin, err := buildTrustd(root)
	if err != nil {
		return false, err
	}
	wd, err := buildWorld(w, o.seed)
	if err != nil {
		return false, err
	}
	ref, err := newAssessor(newCalibrator())
	if err != nil {
		return false, err
	}
	sp, err := newSpawner(plan.Server)
	if err != nil {
		return false, err
	}
	f, err := newFleet(root, bin, sp)
	if err != nil {
		return false, err
	}
	defer f.removeTemp()
	defer f.killAll()

	doc := &runDoc{
		Workload: w.name, Why: w.why, Seed: o.seed, Seconds: o.seconds, Scale: scale, Trace: o.trace != 0,
		StreamHash: fmt.Sprintf("%016x", wd.hash()), Started: time.Now().UTC().Format(time.RFC3339),
		NProc: plan.nproc(), CPUs: plan, GeneratorMaxProcs: runtime.GOMAXPROCS(0), TrustdMaxProcs: len(plan.Server),
		GoVersion: runtime.Version(), Kernel: kernelRelease(),
		LedgerDir: f.tmp, LedgerFilesystem: fsType(f.tmp), LedgerFlushPolicy: "trustd default: flush to the OS per commit group, no fsync",
		ServersPerWorkload: w.servers, RecordsPerServer: w.records, FramesPerLane: w.frames, Lanes: w.lanes(),
	}

	live := &liveRun{ctx: ctx, f: f, wd: wd, ref: ref}
	doc.SpinMsBefore = sp.spinMillis()

	reps := repsPerRun
	if o.quick || doc.Trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		rep, rerr := live.runRep()
		if rep != nil {
			doc.Reps = append(doc.Reps, rep)
			doc.Nodes = rep.nodes
			doc.Attempted += rep.Attempted
			doc.Good += rep.Good
			doc.Failed += rep.Failed
		}
		if rerr != nil {
			var mm *mismatch
			if errors.As(rerr, &mm) {
				rerr = fmt.Errorf("verification failed at seed %d, %w", o.seed, rerr)
			}
			err = rerr
			break
		}
	}
	doc.SpinMsAfter = sp.spinMillis()

	defs := endToEnd
	if err == nil {
		if doc.Trace {
			defs = perLayer
			layers := newLayerSet()
			layers.set("host.spin_ms_before", doc.SpinMsBefore)
			layers.set("host.spin_ms_after", doc.SpinMsAfter)
			liveLayers(layers, doc.Reps[len(doc.Reps)-1], wd)
			doc.TraceFile, err = tracedLayers(ctx, layers, wd, f.tmp, o.out)
			doc.Metrics, doc.Absent = layers.values()
		} else {
			doc.Metrics = endToEndMetrics(doc.Reps)
		}
	}
	doc.Correct = err == nil && doc.Failed == 0 && doc.Attempted > 0
	if err != nil {
		doc.Error = err.Error()
	}
	if werr := writeDoc(o.out, doc); werr != nil {
		return false, errors.Join(err, werr)
	}
	if !doc.Correct {
		// No result line: the driver must not read numbers from a run whose
		// outputs were wrong.
		return false, err
	}
	return true, printMetrics(os.Stdout, doc, defs)
}
