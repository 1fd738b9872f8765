package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
)

// provenance identifies the host and the code a result was measured on.
type provenance struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	HeldOut    bool   `json:"held_out_seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Threads    int    `json:"threads"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// Commit is the git revision when the checkout is a repository;
	// SourceDigest always identifies the Go sources that were built.
	Commit       string  `json:"commit"`
	SourceDigest string  `json:"source_digest"`
	OpenLoopRPS  float64 `json:"open_loop_rps"`
	// Valid is false when GOMAXPROCS is below the threads the run asks
	// for: such a run measures oversubscription, not the configuration.
	Valid bool `json:"valid"`
}

func hostProvenance(workload string, cfg runConfig) provenance {
	return provenance{
		Workload:     workload,
		Seed:         cfg.Seed,
		HeldOut:      cfg.Seed == HeldOutSeed,
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		Threads:      cfg.Threads,
		CPU:          cpuModel(),
		GoVersion:    runtime.Version(),
		Commit:       gitCommit(),
		SourceDigest: sourceDigest("."),
		OpenLoopRPS:  openLoopRPS,
		Valid:        runtime.GOMAXPROCS(0) >= cfg.Threads,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitCommit names the checked-out revision; a checkout without its own .git
// (an exported tree) reports "unknown" rather than an enclosing repository's.
func gitCommit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every go.mod and .go file under root (skipping dot
// directories such as the build output), so a result names the code it
// measured even in a checkout without version control.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		// hash.Hash writes never fail.
		_, _ = h.Write([]byte(p))
		_, _ = h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the resident-set high-water mark of a process ("self" or
// a pid) from /proc, in MiB.
func peakRSSMB(pid string) (float64, error) {
	f, err := os.Open(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}

// resetPeakRSS returns freed heap to the OS and resets the process's
// resident-set high-water mark, so that peak_rss_mb covers the program's
// work and not the benchmark's input generation and reference outputs.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	return clearPeakRSS("self")
}

// clearPeakRSS resets the resident-set high-water mark (VmHWM) of a process
// ("self" or a pid) to its current resident set.
func clearPeakRSS(pid string) error {
	return os.WriteFile(filepath.Join("/proc", pid, "clear_refs"), []byte("5"), 0)
}

// runtimeSample is a snapshot of the Go runtime's cumulative allocation and
// GC counters.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
}

func sampleRuntime() runtimeSample {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return runtimeSample{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

// runtimeDelta sums the runtime counters over selected ops.
type runtimeDelta struct {
	allocBytes, gcCycles uint64
	ops                  int
}

// add counts one op that started at before.
func (d *runtimeDelta) add(before runtimeSample) {
	after := sampleRuntime()
	d.allocBytes += after.allocBytes - before.allocBytes
	d.gcCycles += after.gcCycles - before.gcCycles
	d.ops++
}

// set reports allocation and GC activity per op.
func (d runtimeDelta) set(o *outcome) {
	ops := float64(max(1, d.ops))
	o.set("runtime.alloc_mb_per_op", "MB", float64(d.allocBytes)/(1<<20)/ops)
	o.set("runtime.gc_cycles_per_op", "count", float64(d.gcCycles)/ops)
}
