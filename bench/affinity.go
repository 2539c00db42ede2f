package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// cpuMask is the kernel's cpu_set_t for up to 1024 CPUs.
type cpuMask [16]uint64

func maskOf(cpus []int) cpuMask {
	var m cpuMask
	for _, c := range cpus {
		m[c/64] |= 1 << (uint(c) % 64)
	}
	return m
}

func (m cpuMask) cpus() []int {
	var out []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(uint(i)%64)) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// allowedCPUs returns the CPUs the calling thread may run on.
func allowedCPUs() ([]int, error) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	return m.cpus(), nil
}

// pinThread restricts the calling OS thread (and every process it later
// forks) to cpus. Callers hold runtime.LockOSThread.
func pinThread(cpus []int) error {
	m := maskOf(cpus)
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity %v: %w", cpus, errno)
	}
	return nil
}

// cpuPlan is the pinning rule: the generator owns the highest-numbered
// allowed CPU and every trustd shares the rest. With a single allowed CPU
// both sides share it and the run says so.
type cpuPlan struct {
	Generator []int `json:"generator_cpus"`
	Server    []int `json:"server_cpus"`
}

func planCPUs(allowed []int) cpuPlan {
	if len(allowed) < 2 {
		return cpuPlan{Generator: allowed, Server: allowed}
	}
	n := len(allowed)
	return cpuPlan{Generator: allowed[n-1:], Server: allowed[:n-1]}
}

// nproc is the number of distinct CPUs the plan uses.
func (p cpuPlan) nproc() int {
	if len(p.Generator) == 1 && len(p.Server) == 1 && p.Generator[0] == p.Server[0] {
		return 1
	}
	return len(p.Generator) + len(p.Server)
}

const planEnv = "TRUSTBENCH_CPUS"

func (p cpuPlan) encode() string { return joinInts(p.Generator) + ";" + joinInts(p.Server) }

func decodePlan(s string) (cpuPlan, error) {
	gen, srv, ok := strings.Cut(s, ";")
	if !ok {
		return cpuPlan{}, fmt.Errorf("%s=%q: want gen;srv", planEnv, s)
	}
	g, err := splitInts(gen)
	if err != nil {
		return cpuPlan{}, err
	}
	sv, err := splitInts(srv)
	return cpuPlan{Generator: g, Server: sv}, err
}

func joinInts(v []int) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		x, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("cpu list %q: %w", s, err)
		}
		out = append(out, x)
	}
	return out, nil
}

// pinSelf puts the whole generator process on its CPU. A running Go process
// cannot move the threads the runtime already started, so the first
// invocation pins its main thread and re-executes itself: the new image
// inherits the mask on every thread and sizes GOMAXPROCS from it. The plan
// rides in the environment so the second image knows the server CPUs it can
// no longer see in its own mask.
func pinSelf() (cpuPlan, error) {
	if enc := os.Getenv(planEnv); enc != "" {
		return decodePlan(enc)
	}
	allowed, err := allowedCPUs()
	if err != nil {
		return cpuPlan{}, err
	}
	plan := planCPUs(allowed)
	if len(allowed) < 2 {
		return plan, nil
	}
	runtime.LockOSThread()
	if err := pinThread(plan.Generator); err != nil {
		return cpuPlan{}, err
	}
	exe, err := os.Executable()
	if err != nil {
		return cpuPlan{}, err
	}
	env := append(os.Environ(), planEnv+"="+plan.encode())
	return cpuPlan{}, fmt.Errorf("re-exec %s: %w", exe, syscall.Exec(exe, os.Args, env))
}

// spawner owns one OS thread pinned to the server CPUs for the life of the
// run and starts every child from it, so each trustd inherits the server
// mask at fork. The thread never exits before the process does, which also
// keeps Pdeathsig (delivered when the forking thread dies) from firing
// early.
type spawner struct {
	reqs chan spawnReq
}

type spawnReq struct {
	fn   func() error
	done chan error
}

func newSpawner(cpus []int) (*spawner, error) {
	s := &spawner{reqs: make(chan spawnReq)}
	ready := make(chan error)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread dies with the process
		ready <- pinThread(cpus)
		for r := range s.reqs {
			r.done <- r.fn()
		}
	}()
	return s, <-ready
}

// on runs fn on the pinned thread.
func (s *spawner) on(fn func() error) error {
	r := spawnReq{fn: fn, done: make(chan error)}
	s.reqs <- r
	return <-r.done
}

// spinMillis times a fixed integer loop on the pinned server thread. The
// loop touches no memory, so its time tracks the host's ALU speed and
// scheduling, not the program under test: a reviewer compares it across
// runs to tell host drift from a program change.
func (s *spawner) spinMillis() float64 {
	var ms float64
	_ = s.on(func() error {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < spinIters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		spinSink = x
		ms = float64(time.Since(start).Nanoseconds()) / 1e6
		return nil
	})
	return ms
}

const spinIters = 60_000_000

var spinSink uint64
