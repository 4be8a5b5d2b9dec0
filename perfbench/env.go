package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// provenance is recorded in every result so that two results can be
// checked for comparability before their numbers are.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	// Commit is the git commit the run script found, or "none" when the
	// source tree is not a git checkout.
	Commit string `json:"commit"`
	// TempFS is the filesystem type holding the run's temporary store,
	// spool and worker directories.
	TempFS string `json:"temp_fs"`
}

func newProvenance(cfg config) provenance {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "none"
	}
	return provenance{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Trace:      cfg.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		TempFS:     fsType(cfg.tmpRoot),
	}
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// rssPeaks records the resident high-water mark that each operation of
// a workload reaches, by kind of operation (a corpus item, a serve tier,
// a cold path). Each operation starts from a heap returned to the
// operating system and a reset mark, so its peak is its own and not
// what an earlier operation left resident.
type rssPeaks map[string][]float64

// around runs fn as one operation of kind name and records its peak.
func (p rssPeaks) around(name string, fn func()) {
	debug.FreeOSMemory()
	resetHWM()
	fn()
	p[name] = append(p[name], readHWM())
}

// peak returns the workload's peak resident memory in MiB: the largest
// over kinds of the kind's median peak. The median over repetitions
// discounts how garbage collection happened to overlap one repetition's
// allocation bursts; the maximum over kinds keeps the footprint of the
// largest operation, however small its share of the run.
func (p rssPeaks) peak() float64 {
	peak := 0.0
	for _, vs := range p {
		peak = max(peak, medianFloat(vs))
	}
	return peak
}

// readHWM returns the process's resident high-water mark in MiB, from
// /proc/self/status, or getrusage where that is unavailable.
func readHWM() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// resetHWM resets the high-water mark to the current resident set; where
// that is not possible, every operation reports the process's peak so
// far.
func resetHWM() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// tempDirs hands out fresh directories under one root and removes them
// all at the end, so no run (and no set-up repetition) warms the next.
type tempDirs struct {
	root string
	n    int
}

func newTempDirs(root string) (*tempDirs, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	return &tempDirs{root: dir}, nil
}

func (t *tempDirs) fresh(name string) string {
	t.n++
	return filepath.Join(t.root, fmt.Sprintf("%s-%d", name, t.n))
}

func (t *tempDirs) cleanup() { _ = os.RemoveAll(t.root) }
