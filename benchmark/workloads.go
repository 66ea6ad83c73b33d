package main

import (
	"fmt"
	"path/filepath"
)

// workloadNames fixes the six workloads and their order in every table.
var workloadNames = []string{
	"plain-json", "plain-binary", "mux-fanin", "contended-recorded", "replay-whatif", "sim-sweep",
}

// workloadWhy records why each workload exists (BENCHMARK.json carries the
// same sentences; a test keeps the two in step).
var workloadWhy = map[string]string{
	"plain-json":         "Unloaded per-request floor of the default v1 JSON protocol: 2 connections, no batching possible, arbiter trivial, so codec, syscall and wake cost dominate.",
	"plain-binary":       "The latency-budget workload: same shape over the v2 binary codec, so whatever a cycle costs beyond four loopback round trips is the program; group-commit changes must not move it.",
	"mux-fanin":          "256 sessions over 2 mux connections, 64 clients on 64 targets: the group-commit write loops and demux do the work, the arbiter little; exercises batching.",
	"contended-recorded": "64 clients queue on one target with recording, metrics and events on: the O(apps) arbiter, one shard queue, pushed grants and the trace recorder dominate; transport as in mux-fanin.",
	"replay-whatif":      "Offline, no sockets: read a seeded 64-app, 4-target arrival trace and compare five policies on a virtual clock; transport changes predict no change, arbiter changes must show here too.",
	"sim-sweep":          "Simulator mode: the Fig. 9 trio of 49-point delta sweeps on pooled platforms under the fabric model; no daemon code runs, so only solver or engine changes move it.",
}

func newWorkload(name string, o options) (workload, error) {
	if spec, ok := liveSpecs[name]; ok {
		return &live{name: name, spec: spec, o: o}, nil
	}
	switch name {
	case "replay-whatif":
		return &replayWhatIf{o: o}, nil
	case "sim-sweep":
		return &simSweep{o: o}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func outPath(o options, file string) string { return filepath.Join(o.outDir, file) }
