package main

import (
	"math/rand"
	"time"

	"repro/internal/delta"
	"repro/internal/experiments"
	"repro/internal/ior"
)

// sweepPoints is the paper-figure ∆-graph resolution (dt = -24 .. 24 s).
const sweepPoints = 49

// sweepPolicies is the Fig. 9 trio. Each gets its own persistent Sweeper: a
// Sweeper (like the platform.Pool under it) cannot tell policy constructors
// apart, so sharing one would hand the fcfs platform to the interrupt sweep.
var sweepPolicies = [...]delta.PolicyFactory{delta.Uncoordinated, delta.FCFS, delta.Interrupt}

// denseScenario is the two 2048-process applications of
// BenchmarkDeltaSweepFabricDense on the Surveyor platform, under the
// explicit-fabric contention model (the paper's most expensive mode).
func denseScenario() delta.Scenario {
	sc := experiments.SurveyorPlatform()
	sc.TrueNetwork = true
	w := ior.Workload{Pattern: ior.Contiguous, BlockSize: 32 << 20, BlocksPerProc: 1, ReqBytes: 4 << 20}
	sc.Apps = []delta.AppSpec{
		{Name: "A", Procs: 2048, Nodes: 512, W: w, Gran: ior.PerRound},
		{Name: "B", Procs: 2048, Nodes: 512, W: w, Gran: ior.PerRound},
	}
	return sc
}

// simSweep is the simulator-mode workload: one op is the three 49-point
// sweeps (147 simulated runs) on pooled platforms. One closed-loop client;
// the sweepers fan points out over GOMAXPROCS workers. No daemon code runs.
type simSweep struct {
	o        options
	sc       delta.Scenario
	dts      []float64
	sweepers [len(sweepPolicies)]*delta.Sweeper
	series   [len(sweepPolicies)]delta.Series
	// want is a fresh, non-pooled Scenario.Sweep per policy, computed in
	// setup; every timed op must reproduce it bit for bit.
	want      [len(sweepPolicies)]delta.Series
	differing int
}

func (s *simSweep) clients() int { return 1 }

func (s *simSweep) setup() error {
	s.sc = denseScenario()
	s.dts = make([]float64, sweepPoints)
	for i := range s.dts {
		s.dts[i] = float64(i - sweepPoints/2)
	}
	// The seed orders the points; every point is its own deterministic run.
	rand.New(rand.NewSource(s.o.seed)).Shuffle(len(s.dts), func(i, j int) {
		s.dts[i], s.dts[j] = s.dts[j], s.dts[i]
	})
	s.differing = 0
	for i, pol := range sweepPolicies {
		s.want[i] = s.sc.Sweep(pol, s.dts)
		s.sweepers[i] = delta.NewSweeper()
	}
	return s.op(nil, 0, time.Now()) // builds every worker's pooled platform
}

func (s *simSweep) teardown() {
	for i, sw := range s.sweepers {
		if sw != nil {
			sw.Close()
			s.sweepers[i] = nil
		}
	}
}

func (s *simSweep) op(rec *recorder, id uint32, base time.Time) error {
	now := func() int64 { return int64(time.Since(base)) }
	root := rec.begin(spOp, -1, id, now())
	defer func() { rec.end(root, now()) }()
	for i, pol := range sweepPolicies {
		sp := rec.begin(spSweepInto, root, id, now())
		s.sweepers[i].SweepInto(&s.series[i], s.sc, pol, s.dts)
		rec.end(sp, now())
		if !sameSeries(&s.series[i], &s.want[i]) {
			s.differing++
		}
	}
	return nil
}

func sameSeries(a, b *delta.Series) bool {
	if a.Policy != b.Policy || a.SoloA != b.SoloA || a.SoloB != b.SoloB {
		return false
	}
	cols := [][2][]float64{{a.DT, b.DT}, {a.TimeA, b.TimeA}, {a.TimeB, b.TimeB},
		{a.FactorA, b.FactorA}, {a.FactorB, b.FactorB}, {a.CPUPerCore, b.CPUPerCore}}
	for _, c := range cols {
		if len(c[0]) != len(c[1]) {
			return false
		}
		for i := range c[0] {
			if c[0][i] != c[1][i] { // exact: pooled reuse must be bit-identical
				return false
			}
		}
	}
	return true
}

func (s *simSweep) run(window time.Duration, n int, traced bool) region {
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	return closedLoop(window, n, rec, func(id uint32, base time.Time) error { return s.op(rec, id, base) })
}

func (s *simSweep) finish(all *region, spans *spanStats, m metricSet) []check {
	if s.o.traced {
		sweeps := float64(len(spans.durs[spSweepInto]))
		m.set("delta.sweep_us_per_point", ratio(us(spans.total[spSweepInto]), sweeps*sweepPoints))
		m.set("delta.allocs_per_sweep", ratio(float64(all.mallocs), float64(all.ops*len(sweepPolicies))))
		m.set("delta.op_p99_us", us(percentile(spans.durs[spOp], 99)))
	}
	return []check{gate("every sweep bit-identical to a fresh Scenario.Sweep", s.differing == 0,
		"%d sweeps differed", s.differing)}
}
