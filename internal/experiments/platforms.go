// Package experiments reproduces every table and figure of the paper's
// evaluation. Each Fig* function runs the corresponding experiment on a
// simulated platform and returns a Table with the same rows/series the paper
// reports. Platform constants live here, in one place, and are calibrated to
// the paper's *shapes* (who wins, by what factor, where crossovers sit) —
// see DESIGN.md §5 and EXPERIMENTS.md for paper-vs-measured notes.
package experiments

import (
	"repro/internal/delta"
	"repro/internal/pfs"
)

// Byte-size constants.
const (
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
)

// RennesPlatform models the Grid'5000 Rennes deployment of the paper
// (Figs. 6 and 9): OrangeFS on 12 nodes of parapide with local-disk ext3
// backends and caching disabled; clients on parapluie (24 cores/node) over
// InfiniBand. 768 client cores total.
//
// Calibration: 12 servers x 60 MiB/s = 720 MiB/s aggregate; 12.5 MiB/s
// injection per core means ~58 cores saturate the file system, so a 24-core
// app reaches only ~300 MiB/s alone, and its proportional share in
// contention with a 744-core app is 720*24/768 = 22.5 MiB/s — a x13
// interference factor matching the paper's "up to 14".
func RennesPlatform() delta.Scenario {
	return delta.Scenario{
		Name: "grid5000-rennes",
		FS: pfs.Config{
			Servers:     12,
			StripeBytes: 64 * KiB,
			ServerBW:    60 * float64(MiB),
			Policy:      pfs.Share,
		},
		ProcNIC:       12.5 * float64(MiB),
		CommBWPerProc: 30 * float64(MiB),
		CommAlpha:     5e-6,
		CoordLatency:  1e-3,
	}
}

// RennesCoresPerNode is the parapluie node width used for aggregator counts.
const RennesCoresPerNode = 24

// NancyPlatform models the Grid'5000 Nancy deployment (Figs. 2, 3, 4):
// PVFS on 35 nodes across InfiniBand. For Fig. 3 the storage backend enables
// the kernel page cache; Figs. 2 and 4 disable it.
func NancyPlatform(cache bool) delta.Scenario {
	cfg := pfs.Config{
		Servers:     35,
		StripeBytes: 64 * KiB,
		ServerBW:    18 * float64(MiB),
		Policy:      pfs.Share,
	}
	if cache {
		// Kernel page cache: ~3x ingest speed, 40 MiB dirty limit per
		// server (1.4 GiB machine-wide).
		cfg.CacheBW = 54 * float64(MiB)
		cfg.CacheBytes = 40 * float64(MiB)
	}
	return delta.Scenario{
		Name:          "grid5000-nancy",
		FS:            cfg,
		ProcNIC:       12.5 * float64(MiB),
		CommBWPerProc: 30 * float64(MiB),
		CommAlpha:     5e-6,
		CoordLatency:  1e-3,
	}
}

// NancyCoresPerNode is the node width at the Nancy site (8 cores/node at the
// time of the paper's experiments).
const NancyCoresPerNode = 8

// SurveyorPlatform models Argonne's BG/P Surveyor (Figs. 7, 8, 10, 11, 12):
// one rack of Intrepid with a 4-server PVFS2 file system.
//
// Calibration: 4 servers x 1 GiB/s = 4 GiB/s aggregate; 3 MiB/s injection
// per core means 2048-core apps saturate the file system (Fig. 7a) while
// 1024-core apps are injection-limited to 3 GiB/s, so two of them demand
// 6 GiB/s against 4 GiB/s capacity and interfere *less* than a proportional
// split predicts (Fig. 7b). The slow per-core collective bandwidth makes
// two-phase I/O's shuffle a large fraction of strided writes (Fig. 8b).
func SurveyorPlatform() delta.Scenario {
	return delta.Scenario{
		Name: "surveyor",
		FS: pfs.Config{
			Servers:     4,
			StripeBytes: 1 * MiB,
			ServerBW:    1 * float64(GiB),
			Policy:      pfs.Share,
		},
		ProcNIC:       3 * float64(MiB),
		CommBWPerProc: 1.5 * float64(MiB),
		CommAlpha:     2e-6,
		CoordLatency:  1e-3,
	}
}

// SurveyorCoresPerNode is the BG/P node width.
const SurveyorCoresPerNode = 4

// PlatformByName resolves a platform as the ∆ command lines name it —
// rennes, nancy (page cache off) or surveyor — to its scenario and the node
// count of a job of procs cores on it.
func PlatformByName(name string) (sc delta.Scenario, nodes func(procs int) int, ok bool) {
	var perNode int
	switch name {
	case "rennes":
		sc, perNode = RennesPlatform(), RennesCoresPerNode
	case "nancy":
		sc, perNode = NancyPlatform(false), NancyCoresPerNode
	case "surveyor":
		sc, perNode = SurveyorPlatform(), SurveyorCoresPerNode
	default:
		return delta.Scenario{}, nil, false
	}
	return sc, func(procs int) int { return nodesFor(procs, perNode) }, true
}

// nodesFor returns the node count for a job of procs cores at the given
// node width, at least 1.
func nodesFor(procs, coresPerNode int) int {
	n := procs / coresPerNode
	if n < 1 {
		n = 1
	}
	return n
}

// linspace returns n evenly spaced values over [lo, hi].
func linspace(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}
