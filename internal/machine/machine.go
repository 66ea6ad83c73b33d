// Package machine runs trace-driven, machine-scale studies: a whole job
// trace (Standard Workload Format) is replayed against one shared parallel
// file system, every job performs periodic I/O phases, and the study
// measures what the paper's Section II can only estimate — how much CPU
// time the machine wastes in interfering I/O — with and without CALCioM.
//
// The paper evaluates pairs of applications and notes that the strategies
// "naturally extend to more than two applications"; this package is that
// extension: tens of concurrent jobs of wildly different sizes coordinated
// through one Layer.
package machine

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/ior"
	"repro/internal/mpi"
	"repro/internal/pfs"
	"repro/internal/sim"
	"repro/internal/swf"
)

// Config describes the simulated machine and the per-job I/O behaviour.
type Config struct {
	FS            pfs.Config
	ProcNIC       float64 // injection bandwidth per core (bytes/s)
	CommBWPerProc float64
	CommAlpha     float64
	CoordLatency  float64 // CALCioM message latency

	// PhasePeriod is the compute time between a job's I/O phases
	// (seconds); BytesPerCore is the data each core writes per phase.
	// Together with the trace's runtimes they set E[µ], the fraction of
	// time jobs spend doing I/O.
	PhasePeriod  float64
	BytesPerCore int64

	// MaxJobs caps how many trace jobs are replayed (0 = all).
	MaxJobs int
	// Granularity of the coordination points (default: per round).
	Gran ior.Granularity
}

// IntrepidConfig returns a machine sized like Argonne's Intrepid (the
// trace's host): 128 file-system servers at 512 MiB/s (a ~64 GiB/s storage
// system) and BG/P-like per-core injection bandwidth.
func IntrepidConfig() Config {
	return Config{
		FS: pfs.Config{
			Servers:     128,
			StripeBytes: 1 << 20,
			ServerBW:    512 * float64(1<<20),
			Policy:      pfs.Share,
		},
		ProcNIC:       3 * float64(1<<20),
		CommBWPerProc: 1.5 * float64(1<<20),
		CommAlpha:     2e-6,
		CoordLatency:  1e-3,
		PhasePeriod:   600,
		BytesPerCore:  2 << 20,
		Gran:          ior.PerRound,
	}
}

// JobOutcome is the per-job result of a study.
type JobOutcome struct {
	ID      int
	Cores   int
	Phases  int
	IOTime  float64 // observed total I/O time (waits included)
	SoloIO  float64 // analytic solo I/O time for the same bytes
	Factor  float64 // IOTime / SoloIO
	Arrive  float64
	Depart  float64 // when the job's last phase finished
	Decided int     // arbitration decisions while the job was present (coordinated runs)
}

// Result aggregates a study run.
type Result struct {
	Policy        string
	Jobs          []JobOutcome
	CPUSecWasted  float64 // Σ cores · IOTime
	CPUSecSolo    float64 // Σ cores · SoloIO (lower bound)
	MeanFactor    float64
	MaxFactor     float64
	P95Factor     float64
	Makespan      float64
	Decisions     int
	TotalIOBytes  int64
	JobsSimulated int
}

// Overhead returns the fraction of I/O CPU-seconds beyond the solo lower
// bound: 0 means interference-free.
func (r Result) Overhead() float64 {
	if r.CPUSecSolo <= 0 {
		return 0
	}
	return r.CPUSecWasted/r.CPUSecSolo - 1
}

// String summarizes the result.
func (r Result) String() string {
	return fmt.Sprintf(
		"%s: %d jobs, wasted %.3g core-s (solo bound %.3g, overhead %.1f%%), factor mean %.2f p95 %.2f max %.2f",
		r.Policy, r.JobsSimulated, r.CPUSecWasted, r.CPUSecSolo, 100*r.Overhead(),
		r.MeanFactor, r.P95Factor, r.MaxFactor)
}

// Run replays the trace under the given coordination policy factory
// (nil = uncoordinated interference).
func Run(cfg Config, tr *swf.Trace, factory delta.PolicyFactory) Result {
	if cfg.PhasePeriod <= 0 || cfg.BytesPerCore <= 0 {
		panic("machine: PhasePeriod and BytesPerCore must be positive")
	}
	eng := sim.NewEngine()
	fs := pfs.New(eng, cfg.FS)
	plat := &mpi.Platform{
		Eng: eng, FS: fs,
		ProcNIC:       cfg.ProcNIC,
		CommBWPerProc: cfg.CommBWPerProc,
		CommAlpha:     cfg.CommAlpha,
	}
	model := &core.PerfModel{FSBandwidth: fs.AggregateBW(), ProcNIC: cfg.ProcNIC}
	var layer *core.Layer
	policyName := "uncoordinated"
	if factory != nil {
		pol := factory(model)
		policyName = pol.Name()
		layer = core.NewLayer(eng, pol, cfg.CoordLatency)
	}

	jobs := tr.Jobs
	if cfg.MaxJobs > 0 && len(jobs) > cfg.MaxJobs {
		jobs = jobs[:cfg.MaxJobs]
	}

	type tracked struct {
		job    swf.Job
		runner *ior.Runner
		phases int
	}
	var tracked_ []tracked
	for _, j := range jobs {
		if j.Runtime <= 0 || j.Procs <= 0 {
			continue
		}
		phases := int(j.Runtime / cfg.PhasePeriod)
		if phases < 1 {
			phases = 1
		}
		w := ior.Workload{
			Pattern:       ior.Contiguous,
			BlockSize:     cfg.BytesPerCore,
			BlocksPerProc: 1,
			Phases:        phases,
			ComputeTime:   cfg.PhasePeriod,
		}
		app := plat.NewApp(fmt.Sprintf("job%d", j.ID), j.Procs, 0)
		var sess *core.Session
		if layer != nil {
			sess = core.NewSession(layer.Register(app.Name, j.Procs))
		}
		r := ior.NewRunner(app, w, sess, cfg.Gran)
		r.Start(j.Start())
		tracked_ = append(tracked_, tracked{job: j, runner: r, phases: phases})
	}

	makespan := eng.Run()

	res := Result{Policy: policyName, Makespan: makespan, JobsSimulated: len(tracked_)}
	var factors []float64
	for _, t := range tracked_ {
		bytes := float64(t.runner.Stats.TotalBytes())
		aloneBW := math.Min(float64(t.job.Procs)*cfg.ProcNIC, fs.AggregateBW())
		solo := bytes / aloneBW
		io := t.runner.Stats.TotalIOTime()
		factor := io / solo
		res.Jobs = append(res.Jobs, JobOutcome{
			ID:     t.job.ID,
			Cores:  t.job.Procs,
			Phases: t.phases,
			IOTime: io,
			SoloIO: solo,
			Factor: factor,
			Arrive: t.job.Start(),
			Depart: t.runner.Stats.Phases[len(t.runner.Stats.Phases)-1].End,
		})
		res.CPUSecWasted += float64(t.job.Procs) * io
		res.CPUSecSolo += float64(t.job.Procs) * solo
		res.TotalIOBytes += t.runner.Stats.TotalBytes()
		factors = append(factors, factor)
	}
	if layer != nil {
		res.Decisions = layer.LogLen()
	}
	if len(factors) > 0 {
		sort.Float64s(factors)
		var sum float64
		for _, f := range factors {
			sum += f
		}
		res.MeanFactor = sum / float64(len(factors))
		res.MaxFactor = factors[len(factors)-1]
		res.P95Factor = factors[(len(factors)*95)/100]
	}
	return res
}
