package main

import (
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// pinnedProcs is the GOMAXPROCS every workload runs at, and the bound on
// physical connections: the ROADMAP numbers this benchmark replaces were
// taken at 256 connections and up to 64 workers on a 1-2 vCPU box, which
// measures the scheduler's run queue more than the program.
const pinnedProcs = 2

// env stamps a result with where it was measured, so a number is never
// compared with one from another machine, core count or toolchain unawares.
type env struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
	// Transport says what the live workloads' sockets ran over: latency
	// here is processor and kernel time, not a network's.
	Transport string `json:"transport"`
	// Label is "undersized" on a machine with fewer cores than pinnedProcs
	// (client and daemon then time-share one core), empty otherwise.
	Label string `json:"label,omitempty"`
}

func stampEnv() env {
	e := env{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Kernel:     "unknown",
		Commit:     "unknown",
		Transport:  "loopback",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	// Best effort: a source checkout without git metadata stays "unknown".
	if out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if e.NProc < pinnedProcs {
		e.Label = "undersized"
	}
	return e
}

// peakRSSMiB returns the process's resident-set high-water mark (VmHWM);
// 0 where /proc does not provide it.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
