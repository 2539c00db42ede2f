package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// buildDir is where binaries, the go build cache (when run.sh points GOCACHE
// at it) and per-run temp directories live, relative to the repo root. The
// go tool skips a directory whose name starts with a dot.
const buildDir = "bench/.build"

// repoRoot walks up from the working directory to the directory holding
// BENCHMARK.json, so the runner works from the root and from bench/.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("BENCHMARK.json not found in any parent directory")
		}
		dir = parent
	}
}

// buildTrustd compiles cmd/trustd from the checkout's source and returns
// the binary's path. The bench module requires the repo's module through a
// replace directive, so the command package builds from bench/.
func buildTrustd(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin", "trustd")
	cmd := exec.Command("go", "build", "-o", bin, "honestplayer/cmd/trustd")
	cmd.Dir = filepath.Join(root, "bench")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build trustd: %w\n%s", err, out)
	}
	return bin, nil
}

// node is one trustd subprocess.
type node struct {
	ID          string   `json:"id"`
	Addr        string   `json:"addr"`
	MetricsAddr string   `json:"metrics_addr"`
	Argv        []string `json:"argv"`

	cmd     *exec.Cmd
	logPath string
	exited  chan struct{} // closed once Wait returned
}

// fleet starts, tracks and stops the trustd processes of one run and owns
// the run's temp directory. stopAll and removeTemp run on every exit path.
type fleet struct {
	bin   string
	tmp   string
	sp    *spawner
	nodes []*node
}

func newFleet(root, bin string, sp *spawner) (*fleet, error) {
	base := filepath.Join(root, buildDir, "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &fleet{bin: bin, tmp: tmp, sp: sp}, nil
}

// freeAddrs reserves n distinct loopback ports by binding and releasing
// them; trustd binds them a moment later.
func freeAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for _, ln := range lns {
		_ = ln.Close() // released for trustd; nothing to flush
	}
	return addrs, nil
}

// start launches one trustd pinned to the server CPUs with the given
// engine flags appended to the address flags, and waits until it accepts
// connections.
func (f *fleet) start(ctx context.Context, id, addr, metricsAddr string, extra []string) (*node, error) {
	argv := append([]string{"-addr", addr, "-metrics-addr", metricsAddr}, extra...)
	n := &node{ID: id, Addr: addr, MetricsAddr: metricsAddr, Argv: append([]string{"trustd"}, argv...),
		logPath: filepath.Join(f.tmp, fmt.Sprintf("%s-%d.log", id, len(f.nodes))), exited: make(chan struct{})}
	logFile, err := os.Create(n.logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor after Start
	n.cmd = exec.Command(f.bin, argv...)
	n.cmd.Stdout, n.cmd.Stderr = logFile, logFile
	n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := f.sp.on(n.cmd.Start); err != nil {
		return nil, fmt.Errorf("start trustd %s: %w", id, err)
	}
	f.nodes = append(f.nodes, n)
	go func() {
		_ = n.cmd.Wait() // the exit status is read from ProcessState by stop
		close(n.exited)
	}()
	if err := n.waitReady(ctx, 20*time.Second); err != nil {
		return nil, fmt.Errorf("trustd %s: %w\n%s", id, err, n.logTail())
	}
	return n, nil
}

// waitReady dials the serving and metrics ports until both accept, at most
// 5 ms apart. Readiness is never read from the log.
func (n *node) waitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, addr := range []string{n.Addr, n.MetricsAddr} {
		for {
			c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond)
			if err == nil {
				_ = c.Close() // probe connection; nothing was written
				break
			}
			select {
			case <-n.exited:
				return errors.New("exited before accepting connections")
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Millisecond):
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("not accepting on %s after %s", addr, limit)
			}
		}
	}
	return nil
}

func (n *node) pid() int { return n.cmd.Process.Pid }

func (n *node) running() bool {
	select {
	case <-n.exited:
		return false
	default:
		return true
	}
}

// stop asks trustd to drain (SIGTERM), and kills it if it has not exited
// within grace. It returns once the process has been reaped.
func (n *node) stop(grace time.Duration) error {
	if !n.running() {
		return nil
	}
	_ = n.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-n.exited:
	case <-time.After(grace):
		_ = n.cmd.Process.Kill()
		<-n.exited
		return fmt.Errorf("trustd %s ignored SIGTERM for %s; killed", n.ID, grace)
	}
	if st := n.cmd.ProcessState; st != nil && !st.Success() {
		return fmt.Errorf("trustd %s: %s\n%s", n.ID, st, n.logTail())
	}
	return nil
}

func (n *node) logTail() string {
	b, err := os.ReadFile(n.logPath)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 15 {
		lines = lines[len(lines)-15:]
	}
	return strings.Join(lines, "\n")
}

// stopAll stops every process the fleet started and waits for each.
func (f *fleet) stopAll() error {
	var errs []error
	for _, n := range f.nodes {
		errs = append(errs, n.stop(10*time.Second))
	}
	f.nodes = nil
	return errors.Join(errs...)
}

// killAll is stopAll without the grace period, for failure paths.
func (f *fleet) killAll() {
	for _, n := range f.nodes {
		if n.running() {
			_ = n.cmd.Process.Kill()
			<-n.exited
		}
	}
	f.nodes = nil
}

func (f *fleet) removeTemp() { _ = os.RemoveAll(f.tmp) }

// metricz is a decoded /metricz document. Lookups go by path so a key the
// server does not (or no longer) export makes a metric absent instead of
// failing the run.
type metricz map[string]any

func (n *node) metricz(ctx context.Context) (metricz, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+n.MetricsAddr+"/metricz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("metricz %s: %w", n.ID, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("metricz %s: %w", n.ID, err)
	}
	var m metricz
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, fmt.Errorf("metricz %s: %w", n.ID, err)
	}
	return m, nil
}

// num returns the number at path, and whether it exists.
func (m metricz) num(path ...string) (float64, bool) {
	var cur any = map[string]any(m)
	for _, k := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		if cur, ok = obj[k]; !ok {
			return 0, false
		}
	}
	v, ok := cur.(float64)
	return v, ok
}
