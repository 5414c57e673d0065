package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostInfo identifies where a document was measured. Two documents are
// only comparable when NProc, GOMAXPROCS and GoVersion agree.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`

	// The three calibrations show the host's regime at the time of the
	// run — CPU clock, memory system, disk flush. Nothing is normalised
	// by them; they are recorded so a reader can tell a slow host from a
	// slow program.
	SpinMS    float64 `json:"spin_ms"`
	MemwalkMS float64 `json:"memwalk_ms"`
	FsyncUS   float64 `json:"fsync_us"`
}

func readHost(root, tmp string) hostInfo {
	return hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(root),
		SpinMS:     spinMS(),
		MemwalkMS:  memwalkMS(),
		FsyncUS:    fsyncUS(tmp),
	}
}

// gitCommit reads HEAD without running git; the driver's checkout is not
// a repository, and then the commit is "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

var sink uint64

// spinMS times a fixed dependent-multiply loop: pure core clock.
func spinMS() float64 {
	begin := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 60_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	sink += x
	return float64(time.Since(begin).Nanoseconds()) / 1e6
}

// memwalkMS times a fixed chain of dependent loads scattered over
// 32 MiB: cache misses and TLB walks, which move with the host's memory
// and virtualisation regime while spinMS stays put.
func memwalkMS() float64 {
	const words = 8 << 20 // 32 MiB of uint32
	arr := make([]uint32, words)
	for i := 0; i < words; i += 1024 { // fault every page in before timing
		arr[i] = 1
	}
	begin := time.Now()
	idx := uint32(1)
	for i := 0; i < 1_500_000; i++ {
		idx = ((idx+arr[idx])*1664525 + 1013904223) & (words - 1)
	}
	sink += uint64(idx)
	return float64(time.Since(begin).Nanoseconds()) / 1e6
}

// fsyncUS is the median cost of appending 4 KiB and flushing it, on the
// filesystem the durable workload writes to.
func fsyncUS(dir string) float64 {
	f, err := os.CreateTemp(dir, "fsync-*")
	if err != nil {
		return 0
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	var us []float64
	for i := 0; i < 24; i++ {
		begin := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0
		}
		if err := f.Sync(); err != nil {
			return 0
		}
		us = append(us, float64(time.Since(begin).Nanoseconds())/1e3)
	}
	return median(us)
}
