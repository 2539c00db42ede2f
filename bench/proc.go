package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
)

// userHz is the unit of utime/stime in /proc/<pid>/stat. Linux fixes it at
// 100 for every architecture's user-visible interface.
const userHz = 100

// procSample is one reading of a process's /proc accounting.
type procSample struct {
	UserTicks   uint64 // utime, 1/userHz s
	SysTicks    uint64 // stime
	VmHWMKiB    uint64 // peak resident set
	Threads     uint64
	CtxSwitches uint64 // voluntary + involuntary, all threads
	IOBytes     uint64 // rchar + wchar: bytes through read and write calls, sockets and files alike
	IOCalls     uint64 // syscr + syscw
}

// parseStat extracts utime and stime from /proc/<pid>/stat. The command
// name may itself hold spaces and parentheses, so fields are counted from
// the last ')'.
func parseStat(b []byte) (utime, stime uint64, err error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("proc stat: no command field in %q", b)
	}
	f := bytes.Fields(b[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("proc stat: %d fields after command", len(f))
	}
	if utime, err = strconv.ParseUint(string(f[11]), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat utime: %w", err)
	}
	if stime, err = strconv.ParseUint(string(f[12]), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime, stime, nil
}

// parseStatus extracts the named numeric fields of /proc/<pid>/status
// ("VmHWM:   1234 kB" → 1234). Absent keys are left out of the result.
func parseStatus(b []byte, keys ...string) map[string]uint64 {
	out := make(map[string]uint64, len(keys))
	for _, line := range bytes.Split(b, []byte{'\n'}) {
		k, v, ok := bytes.Cut(line, []byte{':'})
		if !ok {
			continue
		}
		for _, want := range keys {
			if string(k) != want {
				continue
			}
			f := bytes.Fields(v)
			if len(f) == 0 {
				continue
			}
			if n, err := strconv.ParseUint(string(f[0]), 10, 64); err == nil {
				out[want] = n
			}
		}
	}
	return out
}

// sampleProc reads one process's accounting. Context switches are kept per
// thread by the kernel, so they are summed over /proc/<pid>/task.
func sampleProc(pid int) (procSample, error) {
	var s procSample
	dir := filepath.Join("/proc", strconv.Itoa(pid))
	stat, err := os.ReadFile(filepath.Join(dir, "stat"))
	if err != nil {
		return s, err
	}
	if s.UserTicks, s.SysTicks, err = parseStat(stat); err != nil {
		return s, err
	}
	status, err := os.ReadFile(filepath.Join(dir, "status"))
	if err != nil {
		return s, err
	}
	st := parseStatus(status, "VmHWM", "Threads")
	s.VmHWMKiB, s.Threads = st["VmHWM"], st["Threads"]
	// /proc/<pid>/io has the "key: value" lines of status.
	io, err := os.ReadFile(filepath.Join(dir, "io"))
	if err != nil {
		return s, err
	}
	c := parseStatus(io, "rchar", "wchar", "syscr", "syscw")
	s.IOBytes, s.IOCalls = c["rchar"]+c["wchar"], c["syscr"]+c["syscw"]
	tasks, err := os.ReadDir(filepath.Join(dir, "task"))
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, "task", t.Name(), "status"))
		if err != nil {
			continue // the thread exited between ReadDir and ReadFile
		}
		c := parseStatus(b, "voluntary_ctxt_switches", "nonvoluntary_ctxt_switches")
		s.CtxSwitches += c["voluntary_ctxt_switches"] + c["nonvoluntary_ctxt_switches"]
	}
	return s, nil
}

// selfCPUSeconds is the generator's own user+sys CPU so far.
func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// fsType names the filesystem holding path, from /proc/mounts (longest
// mount-point prefix wins).
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	mounts, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, bestLen := "unknown", -1
	for _, line := range bytes.Split(mounts, []byte{'\n'}) {
		f := bytes.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := string(f[1])
		if (abs == mp || mp == "/" || len(abs) > len(mp) && abs[:len(mp)] == mp && abs[len(mp)] == '/') && len(mp) > bestLen {
			best, bestLen = string(f[2]), len(mp)
		}
	}
	return best
}
