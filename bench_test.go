package repro

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/experiments"
	"repro/internal/fabric"
	"repro/internal/fluid"
	"repro/internal/ior"
	"repro/internal/pfs"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/replay/replaytest"
	"repro/internal/sim"
	"repro/internal/swf"
	"repro/internal/trace"
)

// Every table and figure of the paper's evaluation has a benchmark here
// that regenerates it. The first iteration of each benchmark prints the
// reproduced table (so `go test -bench .` emits the same rows/series the
// paper reports); key headline numbers are attached as custom metrics.
//
// Run: go test -bench=. -benchmem

var printOnce sync.Map

func printTable(b *testing.B, tbl *experiments.Table) {
	if _, loaded := printOnce.LoadOrStore(tbl.ID, true); !loaded {
		fmt.Println()
		_ = tbl.Render(os.Stdout)
	}
}

func colMax(t *experiments.Table, col string) float64 {
	m := 0.0
	for _, v := range t.Column(col) {
		if v > m {
			m = v
		}
	}
	return m
}

// benchTrace keeps Fig. 1 benches fast while preserving distribution shape.
var benchTrace = experiments.TraceConfig{Seed: 20090101, Days: 60}

func BenchmarkFig1aJobSizes(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig1a(benchTrace)
	}
	printTable(b, tbl)
	cdf := tbl.Column("cdf_pct")
	cores := tbl.Column("cores")
	for i := range cores {
		if cores[i] == 2048 {
			b.ReportMetric(cdf[i], "%jobs<=2048cores")
		}
	}
}

func BenchmarkFig1bConcurrency(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig1b(benchTrace)
	}
	printTable(b, tbl)
}

func BenchmarkProbabilityIO(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.ProbIO(benchTrace)
	}
	printTable(b, tbl)
	mus := tbl.Column("mu_pct")
	ps := tbl.Column("prob_pct")
	for i := range mus {
		if mus[i] == 5 {
			b.ReportMetric(ps[i], "P(IO)%@mu=5%")
		}
	}
}

func BenchmarkFig2DeltaGraph(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig2(13)
	}
	printTable(b, tbl)
	b.ReportMetric(colMax(tbl, "timeA_s"), "peak_s")
}

func BenchmarkFig3Caching(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig3(10)
	}
	printTable(b, tbl)
	// Collapse ratio: worst interfered iteration vs alone.
	alone := tbl.Column("alone_MiBps")
	shared := tbl.Column("interfered_MiBps")
	worst := alone[0]
	for i := range shared {
		if shared[i] < worst {
			worst = shared[i]
		}
	}
	b.ReportMetric(alone[0]/worst, "cache_collapse_x")
}

func BenchmarkFig4Aggregate(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig4()
	}
	printTable(b, tbl)
	cores := tbl.Column("coresB")
	slow := tbl.Column("slowdownB")
	for i := range cores {
		if cores[i] == 8 {
			b.ReportMetric(slow[i], "slowdownB@8cores_x")
		}
	}
}

func BenchmarkFig6SizeSweep(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig6(11)
	}
	printTable(b, tbl)
	b.ReportMetric(colMax(tbl, "factorB"), "worst_factorB_x")
}

func BenchmarkFig7aFCFS(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig7a(13)
	}
	printTable(b, tbl)
	b.ReportMetric(colMax(tbl, "tB_fcfs"), "worst_tB_fcfs_s")
}

func BenchmarkFig7bLowInterference(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig7b(13)
	}
	printTable(b, tbl)
	peak := colMax(tbl, "tA_interfere")
	expect := colMax(tbl, "tA_expected")
	b.ReportMetric(peak/expect, "peak_vs_expected")
}

func BenchmarkFig8aCollective(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig8a(17)
	}
	printTable(b, tbl)
	b.ReportMetric(colMax(tbl, "tB_fcfs")-colMax(tbl, "tB_interfere"), "fcfs_penalty_s")
}

func BenchmarkFig8bPhases(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig8b()
	}
	printTable(b, tbl)
	comm := tbl.Column("commA_s")
	write := tbl.Column("writeA_s")
	b.ReportMetric(comm[1]/comm[0], "comm_impact_x")
	b.ReportMetric(write[1]/write[0], "write_impact_x")
}

func BenchmarkFig9Policies(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig9(21)
	}
	printTable(b, tbl)
	b.ReportMetric(colMax(tbl, "fB_fcfs"), "worst_fB_fcfs_x")
	b.ReportMetric(colMax(tbl, "fB_interrupt"), "worst_fB_interrupt_x")
}

func BenchmarkFig10Granularity(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig10(21)
	}
	printTable(b, tbl)
	b.ReportMetric(colMax(tbl, "tB_fileIRQ"), "worst_tB_file_s")
	b.ReportMetric(colMax(tbl, "tB_roundIRQ"), "worst_tB_round_s")
}

func BenchmarkFig11Dynamic(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig11(21)
	}
	printTable(b, tbl)
	base := tbl.Column("percore_interfere_s")
	dyn := tbl.Column("percore_calciom_s")
	var saved float64
	for i := range base {
		saved += base[i] - dyn[i]
	}
	b.ReportMetric(saved/float64(len(base)), "avg_saving_s_per_core")
}

func BenchmarkFig12Delay(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.Fig12(15)
	}
	printTable(b, tbl)
}

func BenchmarkAblationServerScheduler(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.AblationServerScheduler()
	}
	printTable(b, tbl)
}

func BenchmarkAblationGranularity(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.AblationGranularity()
	}
	printTable(b, tbl)
}

func BenchmarkAblationMessageLatency(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.AblationMessageLatency()
	}
	printTable(b, tbl)
}

func BenchmarkAblationCollectiveBuffer(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.AblationCollectiveBuffer()
	}
	printTable(b, tbl)
}

// --- Microbenchmarks of the substrate ---------------------------------

// BenchmarkFabricReassign measures the steady-state contention hot path:
// a populated fabric (2 app NICs, 16 servers, 64 flows) forced through
// advance+reassign by capacity changes, with no flow churn. This is the
// inner loop of every TrueNetwork simulation; it must stay allocation-free.
func BenchmarkFabricReassign(b *testing.B) {
	eng := sim.NewEngine()
	fb := fabric.New(eng)
	nics := []*fabric.Link{fb.NewLink("nicA", 4e9), fb.NewLink("nicB", 4e9)}
	servers := make([]*fabric.Link, 16)
	for i := range servers {
		servers[i] = fb.NewLink(fmt.Sprintf("srv%d", i), 1e9)
	}
	for i := 0; i < 64; i++ {
		fb.Start(fmt.Sprintf("f%d", i), 1e18, 1+float64(i%3),
			[]*fabric.Link{nics[i%2], servers[i%16]}, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternate a server's capacity: each call is one advance+reassign.
		servers[0].SetCapacity(1e9 + float64(i&1)*1e8)
	}
}

// BenchmarkEngineSchedule measures one schedule+fire cycle of a heap event.
func BenchmarkEngineSchedule(b *testing.B) {
	eng := sim.NewEngine()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(1, nop)
		eng.Run()
	}
}

// fabricPairScenario is the scenario of the ∆-sweep macro-benchmarks: two
// 2048-process applications on Surveyor under the explicit-fabric model.
func fabricPairScenario() delta.Scenario {
	sc := experiments.SurveyorPlatform()
	sc.TrueNetwork = true
	w := ior.Workload{Pattern: ior.Contiguous, BlockSize: 32 << 20, BlocksPerProc: 1, ReqBytes: 4 << 20}
	sc.Apps = []delta.AppSpec{
		{Name: "A", Procs: 2048, Nodes: 512, W: w, Gran: ior.PerRound},
		{Name: "B", Procs: 2048, Nodes: 512, W: w, Gran: ior.PerRound},
	}
	return sc
}

// BenchmarkDeltaSweepFabric is the macro-benchmark the solver rewrite
// targets: a full ∆-graph sweep under the explicit-fabric contention model
// (TrueNetwork), the paper's most expensive evaluation mode. Since the
// persistent sweep executor, the timed region holds one delta.Sweeper and
// one output Series across iterations — what a parameter study does — so
// the remaining allocs/op are the per-sweep worker goroutines, not platform
// construction (TestSweeperSteadyStateAllocs pins the bound).
func BenchmarkDeltaSweepFabric(b *testing.B) {
	sc := fabricPairScenario()
	dts := []float64{-10, -5, -2, 0, 2, 5, 10}
	sw := delta.NewSweeper()
	var s delta.Series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.SweepInto(&s, sc, delta.Uncoordinated, dts)
	}
}

// BenchmarkDeltaSweepFabricDense is the same sweep at paper-figure
// resolution (49 points): with many points per worker, the per-worker
// engine reuse introduced with sim.Engine.Reset amortizes event-record
// allocations across points instead of re-paying them per run.
func BenchmarkDeltaSweepFabricDense(b *testing.B) { benchDenseSweep(b, delta.Uncoordinated) }

// BenchmarkDeltaSweepFabricDenseCoordinated is the dense sweep with the
// coordination layer deciding every round under fcfs: what asking the
// coordinator adds to a figure's cost.
func BenchmarkDeltaSweepFabricDenseCoordinated(b *testing.B) { benchDenseSweep(b, delta.FCFS) }

func benchDenseSweep(b *testing.B, factory delta.PolicyFactory) {
	sc := fabricPairScenario()
	dts := make([]float64, 49)
	for i := range dts {
		dts[i] = float64(i - 24)
	}
	sw := delta.NewSweeper()
	var s delta.Series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.SweepInto(&s, sc, factory, dts)
	}
}

// BenchmarkDeltaPointReused measures the marginal cost of one additional
// ∆-sweep point on a reused platform — what every point after a worker's
// first costs since the resettable-platform rework: pure simulation, zero
// allocations.
func BenchmarkDeltaPointReused(b *testing.B) { benchPointReused(b, delta.Uncoordinated) }

// BenchmarkDeltaPointReusedCoordinated is the same marginal point with both
// applications coordinated under fcfs — every poke, decision, logged reason,
// grant message and wait on reused storage: 0 allocs/op, enforced by CI.
func BenchmarkDeltaPointReusedCoordinated(b *testing.B) { benchPointReused(b, delta.FCFS) }

func benchPointReused(b *testing.B, factory delta.PolicyFactory) {
	sc := fabricPairScenario()
	pl := platform.NewPool().Acquire(sc.Spec(), factory)
	starts := []float64{0, 5}
	pl.Run(starts, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl.Run(starts, nil)
	}
}

func BenchmarkEngineEvents(b *testing.B) {
	eng := sim.NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(1, func() {})
	}
	eng.Run()
}

// BenchmarkEngineTimerRearm re-arms one pending Timer among 64 pending
// records, to a time that lands anywhere among them: the fabric's completion
// timer, moved at every rate change while the simulation's other events wait.
func BenchmarkEngineTimerRearm(b *testing.B) {
	eng := sim.NewEngine()
	for k := 1; k <= 64; k++ {
		eng.After(float64(k), func() {})
	}
	tm := eng.NewTimer(func() {})
	tm.ScheduleAt(0.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.ScheduleAt(float64(i*37%128) / 2)
	}
}

func BenchmarkEngineProcSleep(b *testing.B) {
	eng := sim.NewEngine()
	eng.Go("p", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	eng.Run()
}

// BenchmarkEngineProcSpawn is one Go + (empty) body + Reset on a warm engine:
// what launching a process costs once the pooled proc and its coroutine exist.
func BenchmarkEngineProcSpawn(b *testing.B) {
	eng := sim.NewEngine()
	body := func(p *sim.Proc) {}
	spawn := func() {
		eng.Go("p", body)
		eng.Run()
		eng.Reset()
	}
	spawn()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spawn()
	}
}

func BenchmarkFluidContention(b *testing.B) {
	// 64 concurrent jobs repeatedly joining/leaving one resource.
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		r := fluid.NewResource(eng, "r", 1e9)
		for j := 0; j < 64; j++ {
			eng.At(float64(j)*0.01, func() {
				r.Submit("j", 1e7, 1, 0, nil)
			})
		}
		eng.Run()
	}
}

func BenchmarkPFSWrite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine()
		fs := pfs.New(eng, pfs.Config{Servers: 16, StripeBytes: 1 << 20, ServerBW: 1 << 30})
		f := fs.Create("f")
		eng.Go("w", func(p *sim.Proc) {
			f.Write(p, pfs.Request{App: "a", Length: 1 << 30, Weight: 64})
		})
		eng.Run()
	}
}

// BenchmarkPFSWriteFabric is the explicit-fabric write path on a reused
// 4-server file system: two applications, each behind its own NIC link,
// interleave eight striped writes that touch every server — per write one
// fill at submit and one per batch of completions.
func BenchmarkPFSWriteFabric(b *testing.B) {
	eng := sim.NewEngine()
	fb := fabric.New(eng)
	fs := pfs.New(eng, pfs.Config{Servers: 4, StripeBytes: 1 << 20, ServerBW: 1 << 30, Fabric: fb})
	nics := [2]*fabric.Link{fb.NewLink("nicA", 6<<30), fb.NewLink("nicB", 3<<30)}
	names := [2]string{"A", "B"}
	var bodies [2]func(p *sim.Proc)
	for i := range bodies {
		bodies[i] = func(p *sim.Proc) {
			f := fs.Create(names[i])
			for k := int64(0); k < 8; k++ {
				f.Write(p, pfs.Request{App: names[i], Offset: k << 26, Length: 1 << 26, Weight: 64, ClientLink: nics[i]})
			}
		}
	}
	run := func() {
		eng.Reset()
		fb.Reset()
		fs.Reset()
		eng.Go(names[0], bodies[0])
		eng.GoAt(0.01, names[1], bodies[1])
		eng.Run()
	}
	run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

func BenchmarkScenarioRun(b *testing.B) {
	sc := experiments.SurveyorPlatform()
	w := ior.Workload{Pattern: ior.Contiguous, BlockSize: 32 << 20, BlocksPerProc: 1, ReqBytes: 4 << 20}
	sc.Apps = []delta.AppSpec{
		{Name: "A", Procs: 2048, Nodes: 512, W: w, Gran: ior.PerRound},
		{Name: "B", Procs: 2048, Nodes: 512, W: w, Gran: ior.PerRound},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.Run(delta.FCFS, []float64{0, 5})
	}
}

func BenchmarkSWFGenerate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		swf.Generate(swf.GenConfig{Seed: int64(i), Days: 30})
	}
}

func BenchmarkSWFConcurrency(b *testing.B) {
	tr := swf.Generate(swf.GenConfig{Seed: 1, Days: 60})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		swf.ConcurrencyDistribution(tr)
	}
}

func BenchmarkMachineStudy(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.MachineStudy(80)
	}
	printTable(b, tbl)
	over := tbl.Column("overhead_pct")
	b.ReportMetric(over[0], "uncoordinated_overhead_%")
	b.ReportMetric(over[1], "fcfs_overhead_%")
}

func BenchmarkExtensionAdaptive(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.ExtensionAdaptive()
	}
	printTable(b, tbl)
	sums := tbl.Column("sum_factors")
	b.ReportMetric(sums[0]-sums[1], "factor_saving")
}

func BenchmarkAblationNetworkModel(b *testing.B) {
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl = experiments.AblationNetworkModel()
	}
	printTable(b, tbl)
}

// BenchmarkEnginePost measures the zero-delay fast path: one posted
// callback per op, fully allocation-free.
func BenchmarkEnginePost(b *testing.B) {
	eng := sim.NewEngine()
	nop := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Post(nop)
		eng.Run()
	}
}

// BenchmarkArbiterRotating is the arbiter as the contended daemon shard
// drives it: n sessions registered in order, all queued on one target under
// fcfs, the holder cycling release/end/re-inform so arrivals are a rotation
// of registration order (never the order the sessions sit in). Each op is
// one grant cycle of three decisions; ns/decision is the headline.
func BenchmarkArbiterRotating(b *testing.B) {
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("apps=%d", n), func(b *testing.B) {
			ar := core.NewArbiter(core.FCFSPolicy{})
			apps := make([]*core.AppState, n)
			now := 0.0
			for i := range apps {
				var err error
				if apps[i], err = ar.Register(fmt.Sprintf("app-%03d", i), 64); err != nil {
					b.Fatal(err)
				}
				now++
				apps[i].Inform(now)
			}
			ar.Arbitrate(now)
			holder := 0
			cycle := func() {
				a := apps[holder]
				if !a.Authorized() || a.Activate().Err() != nil || a.Release().Err() != nil {
					b.Fatalf("%s is not the holder", a.Name())
				}
				now++
				ar.Arbitrate(now)
				a.End()
				ar.Arbitrate(now)
				a.Inform(now)
				ar.Arbitrate(now)
				holder = (holder + 1) % n
			}
			for i := 0; i < 2*n+256; i++ {
				cycle() // fill the decision-log ring and settle the queue's backing
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(3*b.N), "ns/decision")
		})
	}
}

// BenchmarkReplayCompare is the after-the-incident study on a fixed
// synthesized trace (64 applications on 4 storage targets, 20 two-step phases
// each): replay.Under per standard policy, then the whole replay.Compare.
// The model policies decide from estimates, so their rows are where a
// decision that allocates shows: CI's alloc guard holds the dynamic row's
// allocs/op within 1.5x of the fcfs row's (it was 321x). A replay spreads
// its policy x target cells over GOMAXPROCS workers, so read the rows at
// -cpu 1,2: the one-P row is the work, the other what a second core buys.
func BenchmarkReplayCompare(b *testing.B) {
	tr := replaytest.Trace(64, 4, 20)
	policies := replay.StandardPolicies(tr.Header, -1)
	for _, p := range policies {
		b.Run("policy="+p.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var res replay.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = replay.Under(tr, p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Arbitrations), "arbitrations/op")
		})
	}
	b.Run("compare", func(b *testing.B) {
		b.ReportAllocs()
		var arbitrations uint64
		for i := 0; i < b.N; i++ {
			c, err := replay.Compare(tr, policies)
			if err != nil {
				b.Fatal(err)
			}
			arbitrations = 0
			for _, o := range c.Outcomes {
				arbitrations += o.Arbitrations
			}
		}
		b.ReportMetric(float64(arbitrations), "arbitrations/op")
	})
}

// BenchmarkTraceRead loads the same synthesized trace from its encoded
// bytes: B/op is the event slice (reserved for the count in the trailer,
// not grown into) plus a parsed info per Prepare, allocated a slab chunk at a
// time; no map is built for a Prepare.
func BenchmarkTraceRead(b *testing.B) {
	tr := replaytest.Trace(64, 4, 20)
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, tr.Header, len(tr.Events))
	if err != nil {
		b.Fatal(err)
	}
	for _, ev := range tr.Events {
		w.Record(ev)
	}
	if err := w.Close(); err != nil || w.Dropped() != 0 {
		b.Fatalf("encode: %v, %d events dropped", err, w.Dropped())
	}
	b.ReportAllocs()
	b.SetBytes(int64(buf.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := trace.Read(bytes.NewReader(buf.Bytes()))
		if err != nil || len(got.Events) != len(tr.Events) {
			b.Fatalf("read %d events of %d: %v", len(got.Events), len(tr.Events), err)
		}
	}
	b.ReportMetric(float64(len(tr.Events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}
