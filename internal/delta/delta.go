// Package delta is the experiment harness for the paper's ∆-graphs:
// application A starts an I/O phase at a reference time, application B at an
// offset dt, and the observed I/O time (or interference factor I = T/T_alone)
// of each is plotted against dt, for each coordination policy.
package delta

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fluid"
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/internal/platform"
	"repro/internal/timeline"
)

// AppSpec describes one application in a scenario.
type AppSpec = platform.AppSpec

// Scenario is a full experimental setup: platform constants plus the
// applications. One Scenario value is immutable and reusable; runs execute
// on a platform.Pool, which builds the pfs+ior+mpi+layer object graph once
// per distinct spec and resets it per run.
type Scenario struct {
	Name          string
	FS            pfs.Config
	ProcNIC       float64 // per-process injection bandwidth (bytes/s)
	CommBWPerProc float64 // per-process collective-comm bandwidth (bytes/s)
	CommAlpha     float64 // interconnect latency for collectives (s)
	CoordLatency  float64 // CALCioM message latency (s)
	Apps          []AppSpec

	// TrueNetwork switches the contention model from per-server sharing
	// with static injection caps to an explicit fabric (per-app NIC links
	// plus per-server links) under global max-min fairness. Used by the
	// network-model ablation.
	TrueNetwork bool
}

// Spec converts the scenario to the platform package's build description.
func (sc Scenario) Spec() platform.Spec {
	return platform.Spec{
		FS:            sc.FS,
		TrueNetwork:   sc.TrueNetwork,
		ProcNIC:       sc.ProcNIC,
		CommBWPerProc: sc.CommBWPerProc,
		CommAlpha:     sc.CommAlpha,
		CoordLatency:  sc.CoordLatency,
		Apps:          sc.Apps,
	}
}

// PolicyFactory builds a fresh policy for one run; the model carries the
// scenario's platform constants. A nil PolicyFactory means "no coordination
// layer at all" (the uncoordinated baseline).
type PolicyFactory func(m *core.PerfModel) core.Policy

// Predefined factories.
var (
	Uncoordinated PolicyFactory // nil: no layer
	Interfere     PolicyFactory = func(*core.PerfModel) core.Policy { return core.InterferePolicy{} }
	FCFS          PolicyFactory = func(*core.PerfModel) core.Policy { return core.FCFSPolicy{} }
	Interrupt     PolicyFactory = func(*core.PerfModel) core.Policy { return core.InterruptPolicy{} }
)

// Dynamic returns a factory for CALCioM's adaptive policy under a metric.
func Dynamic(metric core.Metric, allowInterfere bool) PolicyFactory {
	return func(m *core.PerfModel) core.Policy {
		return core.DynamicPolicy{Metric: metric, Model: m, AllowInterfere: allowInterfere}
	}
}

// Delay returns a factory for the Fig. 12 delay/overlap tradeoff policy.
func Delay(overlap float64) PolicyFactory {
	return func(m *core.PerfModel) core.Policy {
		return core.DelayPolicy{Overlap: overlap, Model: m}
	}
}

// Result is the outcome of one run.
type Result struct {
	IOTime    []float64 // per app: observed I/O time summed over phases
	Stats     []*ior.Stats
	Decisions []core.DecisionRecord
	Makespan  float64 // last I/O completion time
}

// Model returns the performance model for the scenario's platform.
func (sc Scenario) Model() *core.PerfModel { return sc.Spec().Model() }

// Run executes the scenario once with each app's I/O phase starting at the
// given absolute time.
func (sc Scenario) Run(factory PolicyFactory, starts []float64) Result {
	return sc.RunWithTimeline(factory, starts, nil)
}

// RunWithTimeline is Run with an optional interval recorder for Gantt
// rendering. The recorder must not be shared between concurrent runs.
func (sc Scenario) RunWithTimeline(factory PolicyFactory, starts []float64, rec *timeline.Recorder) Result {
	return sc.RunOn(platform.NewPool(), factory, starts, rec)
}

// RunOn executes the scenario on a caller-provided pool, reusing its cached
// platform when the pool has run this scenario (with this coordination
// mode) before. A harness that re-runs one scenario — a sweep worker, a
// what-if loop — holds one pool and stops paying per-run platform
// construction; results are bit-identical to a fresh platform. One pool
// must not mix policy families (see platform.Pool), and Result.Stats
// aliases the pooled runners' statistics: it is valid until the pool runs
// the same spec again (IOTime, Decisions and Makespan are snapshots and
// always remain valid).
func (sc Scenario) RunOn(pool *platform.Pool, factory PolicyFactory, starts []float64, rec *timeline.Recorder) Result {
	if len(starts) != len(sc.Apps) {
		panic("delta: starts length mismatch")
	}
	pl := pool.Acquire(sc.Spec(), factory)
	end := pl.Run(starts, rec)

	res := Result{Makespan: end}
	for _, r := range pl.Runners {
		res.IOTime = append(res.IOTime, r.Stats.TotalIOTime())
		res.Stats = append(res.Stats, &r.Stats)
	}
	if pl.Layer != nil {
		res.Decisions = core.CloneLog(pl.Layer.Log()) // the pooled layer reuses its log
	}
	return res
}

// Solo runs application i alone (starting at 0, uncoordinated) and returns
// its observed I/O time — the T_alone calibration for interference factors.
func (sc Scenario) Solo(i int) float64 {
	return sc.SoloOn(platform.NewPool(), i)
}

// SoloOn is Solo on a reused pool: the solo platform for app i is cached
// alongside any other specs the pool has built (see RunOn).
func (sc Scenario) SoloOn(pool *platform.Pool, i int) float64 {
	solo := sc
	solo.Apps = sc.Apps[i : i+1 : i+1]
	return solo.RunOn(pool, nil, soloStart[:], nil).IOTime[0]
}

// soloTimeOn is SoloOn without building a Result: the Sweeper's
// steady-state calibration path, allocation-free on a warm pool.
func (sc Scenario) soloTimeOn(pool *platform.Pool, i int) float64 {
	solo := sc
	solo.Apps = sc.Apps[i : i+1 : i+1]
	pl := pool.Acquire(solo.Spec(), nil)
	pl.Run(soloStart[:], nil)
	return pl.Runners[0].Stats.TotalIOTime()
}

// soloStart is the shared zero start vector of every solo calibration.
var soloStart = [1]float64{0}

// Series is a swept ∆-graph for a two-application scenario under one policy.
type Series struct {
	Policy  string
	DT      []float64
	TimeA   []float64 // observed I/O time of app A (starts at max(0,-dt))
	TimeB   []float64 // observed I/O time of app B (starts at max(0,+dt))
	FactorA []float64 // TimeA / SoloA
	FactorB []float64
	SoloA   float64
	SoloB   float64
	// CPUPerCore is the machine-wide f/Σcores for each dt (Fig. 11 axis).
	CPUPerCore []float64
}

// policyName resolves a factory's display name, once per Sweeper: building a
// policy to ask its name allocates, and a Sweeper serves one policy family.
func (sw *Sweeper) policyName(sc Scenario, factory PolicyFactory) string {
	if factory == nil {
		return "uncoordinated"
	}
	if sw.policy == "" {
		sw.policy = factory(sc.Model()).Name()
	}
	return sw.policy
}

// Sweep runs the two-app scenario at every dt under the policy. dt > 0
// means B starts after A, matching the paper's convention. It is the
// one-shot convenience over a fresh Sweeper; harnesses that sweep one
// policy family repeatedly (parameter studies, benchmarks) should hold a
// Sweeper so the per-sweep platform construction amortizes away too.
func (sc Scenario) Sweep(factory PolicyFactory, dts []float64) Series {
	return NewSweeper().Sweep(sc, factory, dts)
}

// Sweeper is a persistent ∆-sweep executor: it owns the solo-calibration
// pool, and a set of persistent worker goroutines (one platform pool each)
// fed per sweep through a channel, all reused across Sweep calls — a
// repeated sweep pays neither platform construction, solo recalibration nor
// worker-goroutine spawning; the steady-state SweepInto performs zero
// allocations (TestSweeperSteadyStateAllocs). Results are bit-identical to
// a fresh Sweep.
//
// Like platform.Pool, a Sweeper cannot distinguish policy constructors: use
// one Sweeper per policy family (the pools would otherwise hand a platform
// built for one policy to a sweep of another). A Sweeper is not
// goroutine-safe; one Sweep runs at a time. Close releases the worker
// goroutines; it is optional — an abandoned Sweeper's workers are reclaimed
// by a GC cleanup — but a Sweeper must not sweep after Close.
type Sweeper struct {
	calib  *platform.Pool // solo calibrations, shared across sweeps
	policy string         // the coordinated family's display name, once known
	ws     *workerSet     // persistent workers; separate allocation so the
	// GC cleanup below can close them without keeping the Sweeper alive

	// Per-sweep context, reused so waking the workers allocates nothing.
	job  sweepJob
	wg   sync.WaitGroup
	next atomic.Int64

	cleanup runtime.Cleanup
}

// workerSet owns the worker wake channels. It lives outside the Sweeper so
// runtime.AddCleanup can reference it after the Sweeper becomes
// unreachable.
type workerSet struct {
	chans  []chan *sweepJob
	closed bool
}

func (ws *workerSet) close() {
	if ws.closed {
		return
	}
	ws.closed = true
	for _, ch := range ws.chans {
		close(ch)
	}
}

// sweepJob is one sweep's shared context: workers pull point indices off
// the owner's counter and write results straight into the Series.
type sweepJob struct {
	sw             *Sweeper
	spec           platform.Spec
	factory        PolicyFactory
	dts            []float64
	s              *Series
	coresA, coresB float64
}

// run executes sweep points on one worker's pooled platform until the
// shared counter runs out. Every point is its own deterministic run, so
// results are independent of the worker count and of scheduling order.
func (job *sweepJob) run(pool *platform.Pool) {
	pl := pool.Acquire(job.spec, job.factory)
	var starts [2]float64
	n := len(job.dts)
	s := job.s
	for {
		k := int(job.sw.next.Add(1)) - 1
		if k >= n {
			return
		}
		dt := job.dts[k]
		starts[0], starts[1] = 0, dt
		if dt < 0 {
			starts[0], starts[1] = -dt, 0
		}
		pl.Run(starts[:], nil)
		ta := pl.Runners[0].Stats.TotalIOTime()
		tb := pl.Runners[1].Stats.TotalIOTime()
		s.TimeA[k] = ta
		s.TimeB[k] = tb
		s.FactorA[k] = ta / s.SoloA
		s.FactorB[k] = tb / s.SoloB
		// f/Σcores inlined (metrics.Report.CPUSecondsPerCore for two
		// apps) so the inner loop stays scratch-free.
		s.CPUPerCore[k] = (job.coresA*ta + job.coresB*tb) / (job.coresA + job.coresB)
	}
}

// NewSweeper returns an empty executor. Workers spawn on first use.
func NewSweeper() *Sweeper {
	sw := &Sweeper{calib: platform.NewPool(), ws: &workerSet{}}
	sw.cleanup = runtime.AddCleanup(sw, func(ws *workerSet) { ws.close() }, sw.ws)
	return sw
}

// Close stops the persistent worker goroutines. Optional (see Sweeper);
// idempotent; the Sweeper must not sweep afterwards.
func (sw *Sweeper) Close() {
	sw.cleanup.Stop()
	sw.ws.close()
}

// ensureWorkers grows the persistent worker set to n goroutines, each with
// its own platform pool.
func (sw *Sweeper) ensureWorkers(n int) {
	if sw.ws.closed {
		panic("delta: Sweeper used after Close")
	}
	for len(sw.ws.chans) < n {
		wake := make(chan *sweepJob)
		sw.ws.chans = append(sw.ws.chans, wake)
		go func(wake <-chan *sweepJob, pool *platform.Pool) {
			for job := range wake {
				job.run(pool)
				job.sw.wg.Done()
			}
		}(wake, platform.NewPool())
	}
}

// Sweep runs the scenario at every dt under the policy on the reused
// platforms, returning a freshly allocated Series.
func (sw *Sweeper) Sweep(sc Scenario, factory PolicyFactory, dts []float64) Series {
	var s Series
	sw.SweepInto(&s, sc, factory, dts)
	return s
}

// grow returns v resized to n, reusing its backing array when possible.
func grow(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// SweepInto is Sweep writing into a caller-owned Series, reusing its slice
// backing: a harness that sweeps in a loop with one Series allocates
// nothing at all after the first call — the persistent workers (at most one
// per OS thread) are woken through their feed channels with a pointer to
// the Sweeper's reused job context, pull points off a shared counter, and
// re-arm their pooled platforms per point. Every point is its own
// deterministic run, so results are independent of the worker count and of
// scheduling order.
func (sw *Sweeper) SweepInto(s *Series, sc Scenario, factory PolicyFactory, dts []float64) {
	if len(sc.Apps) != 2 {
		panic(fmt.Sprintf("delta: Sweep needs exactly 2 apps, got %d", len(sc.Apps)))
	}
	n := len(dts)
	s.Policy = sw.policyName(sc, factory)
	s.DT = append(s.DT[:0], dts...)
	s.SoloA = sc.soloTimeOn(sw.calib, 0)
	s.SoloB = sc.soloTimeOn(sw.calib, 1)
	s.TimeA = grow(s.TimeA, n)
	s.TimeB = grow(s.TimeB, n)
	s.FactorA = grow(s.FactorA, n)
	s.FactorB = grow(s.FactorB, n)
	s.CPUPerCore = grow(s.CPUPerCore, n)

	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	sw.ensureWorkers(workers)
	sw.job = sweepJob{
		sw:      sw,
		spec:    sc.Spec(),
		factory: factory,
		dts:     dts,
		s:       s,
		coresA:  float64(sc.Apps[0].Procs),
		coresB:  float64(sc.Apps[1].Procs),
	}
	sw.next.Store(0)
	sw.wg.Add(workers)
	for i := 0; i < workers; i++ {
		sw.ws.chans[i] <- &sw.job
	}
	sw.wg.Wait()
	// Drop the references to the caller's Series, dts and factory: a
	// long-lived Sweeper must not pin the last sweep's memory.
	sw.job = sweepJob{}
}

// Expected computes the paper's analytic "expected interference" ∆-graph:
// each application's I/O phase is treated as a unit of service equal to its
// solo time, and overlapping phases progress under equal proportional
// sharing (two overlapped apps each run at half speed). This is the
// piecewise-linear ∆ the graphs are named after: a peak of 2x the solo time
// at dt = 0, decaying to the solo time once the offset exceeds the phase
// length. Real systems can interfere less than this model (Figs. 7b, 8a —
// comm phases and injection limits leave headroom) or more (cache effects,
// Fig. 3).
func (sc Scenario) Expected(dts []float64) Series {
	if len(sc.Apps) != 2 {
		panic("delta: Expected needs exactly 2 apps")
	}
	calib := platform.NewPool()
	s := Series{
		Policy: "expected",
		DT:     append([]float64(nil), dts...),
		SoloA:  sc.SoloOn(calib, 0),
		SoloB:  sc.SoloOn(calib, 1),
	}
	flows := []fluid.Flow{
		{Work: s.SoloA, Weight: 1},
		{Work: s.SoloB, Weight: 1},
	}
	var solver fluid.Solver // water-fill scratch shared across the sweep
	starts := make([]float64, 2)
	for _, dt := range dts {
		startA, startB := 0.0, dt
		if dt < 0 {
			startA, startB = -dt, 0
		}
		starts[0], starts[1] = startA, startB
		fin := solver.StaggeredFinishTimes(1, flows, starts)
		ta := fin[0] - startA
		tb := fin[1] - startB
		s.TimeA = append(s.TimeA, ta)
		s.TimeB = append(s.TimeB, tb)
		s.FactorA = append(s.FactorA, ta/s.SoloA)
		s.FactorB = append(s.FactorB, tb/s.SoloB)
		f := (float64(sc.Apps[0].Procs)*ta + float64(sc.Apps[1].Procs)*tb) /
			float64(sc.Apps[0].Procs+sc.Apps[1].Procs)
		s.CPUPerCore = append(s.CPUPerCore, f)
	}
	return s
}
