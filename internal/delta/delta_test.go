package delta

import (
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/ior"
	"repro/internal/pfs"
)

const miB = int64(1) << 20

// testScenario: 4 servers x 64 MiB/s = 256 MiB/s; apps of 32 procs at
// 4 MiB/s NIC (128 MiB/s injection) writing 8 MiB/proc = 256 MiB each.
func testScenario() Scenario {
	w := ior.Workload{Pattern: ior.Contiguous, BlockSize: 8 * miB, BlocksPerProc: 1, ReqBytes: 2 * miB}
	return Scenario{
		Name: "test",
		FS: pfs.Config{
			Servers: 4, StripeBytes: miB, ServerBW: 64 * float64(miB),
		},
		ProcNIC:       4 * float64(miB),
		CommBWPerProc: 4 * float64(miB),
		CoordLatency:  1e-4,
		Apps: []AppSpec{
			{Name: "A", Procs: 32, Nodes: 8, W: w, Gran: ior.PerRound},
			{Name: "B", Procs: 32, Nodes: 8, W: w, Gran: ior.PerRound},
		},
	}
}

func TestSoloTime(t *testing.T) {
	sc := testScenario()
	// 256 MiB at injection 128 MiB/s: 2s.
	if got := sc.Solo(0); !approx.Equal(got, 2, 1e-6) {
		t.Fatalf("solo = %v, want 2", got)
	}
}

func TestRunUncoordinatedOverlap(t *testing.T) {
	sc := testScenario()
	res := sc.Run(Uncoordinated, []float64{0, 0})
	// Combined demand 256 equals capacity: both take 2s... demand is
	// 2x128 = 256 = capacity, so no slowdown at all.
	if !approx.Equal(res.IOTime[0], 2, 1e-3) || !approx.Equal(res.IOTime[1], 2, 1e-3) {
		t.Fatalf("io times %v, want [2 2] (demand == capacity)", res.IOTime)
	}
	if res.Decisions != nil {
		t.Fatal("uncoordinated run should have no decisions")
	}
}

func TestRunFCFSSerializes(t *testing.T) {
	sc := testScenario()
	res := sc.Run(FCFS, []float64{0, 0.5})
	if !approx.Equal(res.IOTime[0], 2, 1e-2) {
		t.Fatalf("A = %v, want ~2 (protected)", res.IOTime[0])
	}
	// B waits 1.5s then writes 2s.
	if !approx.Equal(res.IOTime[1], 3.5, 1e-2) {
		t.Fatalf("B = %v, want ~3.5", res.IOTime[1])
	}
	if len(res.Decisions) == 0 {
		t.Fatal("coordinated run should log decisions")
	}
}

func TestSweepShapes(t *testing.T) {
	sc := testScenario()
	dts := []float64{-3, -1, 0, 1, 3}
	s := sc.Sweep(Uncoordinated, dts)
	if s.Policy != "uncoordinated" {
		t.Fatalf("policy name %q", s.Policy)
	}
	if len(s.TimeA) != len(dts) || len(s.FactorB) != len(dts) {
		t.Fatal("series length mismatch")
	}
	// No overlap at |dt| >= 2: factors 1.
	if !approx.Equal(s.FactorA[0], 1, 1e-6) || !approx.Equal(s.FactorB[4], 1, 1e-6) {
		t.Fatalf("edge factors %v %v, want 1", s.FactorA[0], s.FactorB[4])
	}
	for i := range dts {
		if s.TimeA[i] <= 0 || s.TimeB[i] <= 0 {
			t.Fatal("nonpositive times")
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	sc := testScenario()
	dts := []float64{-1, 0, 1}
	a := sc.Sweep(FCFS, dts)
	b := sc.Sweep(FCFS, dts)
	for i := range dts {
		if a.TimeA[i] != b.TimeA[i] || a.TimeB[i] != b.TimeB[i] {
			t.Fatalf("sweep not deterministic at %d", i)
		}
	}
}

func TestExpectedModel(t *testing.T) {
	sc := testScenario()
	dts := []float64{-4, -1, 0, 1, 4}
	s := sc.Expected(dts)
	solo := s.SoloA
	// Peak 2x solo at dt=0.
	if !approx.Equal(s.TimeA[2], 2*solo, 1e-6) {
		t.Fatalf("expected peak %v, want %v", s.TimeA[2], 2*solo)
	}
	// No overlap far out.
	if !approx.Equal(s.TimeA[0], solo, 1e-6) || !approx.Equal(s.TimeB[4], solo, 1e-6) {
		t.Fatal("expected tails should be solo")
	}
	// Piecewise linear: dt=1 -> first app 2*solo - dt.
	if !approx.Equal(s.TimeA[3], 2*solo-1, 1e-6) {
		t.Fatalf("expected at dt=1: %v, want %v", s.TimeA[3], 2*solo-1)
	}
}

func TestPolicyFactories(t *testing.T) {
	sc := testScenario()
	m := sc.Model()
	if m.FSBandwidth != 4*64*float64(miB) {
		t.Fatalf("model FS bw %v", m.FSBandwidth)
	}
	names := map[string]PolicyFactory{
		"interfere": Interfere,
		"fcfs":      FCFS,
		"interrupt": Interrupt,
	}
	for want, f := range names {
		if got := f(m).Name(); got != want {
			t.Fatalf("factory name %q, want %q", got, want)
		}
	}
	if got := Dynamic(core.CPUSecondsWasted{}, true)(m).Name(); got != "dynamic(cpu-seconds)" {
		t.Fatalf("dynamic name %q", got)
	}
	if got := Delay(0.5)(m).Name(); got != "delay(0.50)" {
		t.Fatalf("delay name %q", got)
	}
}

func TestRunValidatesStarts(t *testing.T) {
	sc := testScenario()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong starts length")
		}
	}()
	sc.Run(nil, []float64{0})
}

func TestSweepRequiresTwoApps(t *testing.T) {
	sc := testScenario()
	sc.Apps = sc.Apps[:1]
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for single-app sweep")
		}
	}()
	sc.Sweep(nil, []float64{0})
}

func TestMakespan(t *testing.T) {
	sc := testScenario()
	res := sc.Run(Uncoordinated, []float64{0, 5})
	// B starts at 5 and takes 2s.
	if !approx.Equal(res.Makespan, 7, 1e-3) {
		t.Fatalf("makespan %v, want ~7", res.Makespan)
	}
}

// Property: across randomized two-app scenarios, coordination invariants
// hold end-to-end: the FCFS first arriver runs at essentially its solo
// time, every policy's outcome is at least solo (no time travel), and the
// interfering makespan never beats FCFS's first app.
func TestPropertyScenarioInvariants(t *testing.T) {
	rng := func(seed int64) *scenarioRNG { return &scenarioRNG{seed: seed} }
	for seed := int64(0); seed < 25; seed++ {
		r := rng(seed)
		sc := r.scenario()
		dt := r.f(0.1, 3)
		soloA := sc.Solo(0)
		soloB := sc.Solo(1)

		fcfs := sc.Run(FCFS, []float64{0, dt})
		inter := sc.Run(Uncoordinated, []float64{0, dt})

		// First arriver under FCFS pays only coordination messages.
		if fcfs.IOTime[0] > soloA*1.02+0.01 {
			t.Fatalf("seed %d: FCFS A %v exceeds solo %v", seed, fcfs.IOTime[0], soloA)
		}
		// Nobody ever beats their solo time.
		for i, v := range [][2]float64{{fcfs.IOTime[0], soloA}, {fcfs.IOTime[1], soloB},
			{inter.IOTime[0], soloA}, {inter.IOTime[1], soloB}} {
			if v[0] < v[1]*(1-1e-6) {
				t.Fatalf("seed %d case %d: time %v beats solo %v", seed, i, v[0], v[1])
			}
		}
		// FCFS's second app is never faster than interference lets it be
		// minus its own solo (sanity: queueing adds, never subtracts).
		if fcfs.IOTime[1] < soloB*(1-1e-6) {
			t.Fatalf("seed %d: FCFS B %v below solo %v", seed, fcfs.IOTime[1], soloB)
		}
	}
}

// scenarioRNG builds small random but valid scenarios.
type scenarioRNG struct{ seed int64 }

func (r *scenarioRNG) f(lo, hi float64) float64 {
	r.seed = r.seed*6364136223846793005 + 1442695040888963407
	u := float64((r.seed>>11)&((1<<52)-1)) / float64(int64(1)<<52)
	return lo + u*(hi-lo)
}

func (r *scenarioRNG) i(lo, hi int) int { return lo + int(r.f(0, float64(hi-lo+1))) }

func (r *scenarioRNG) scenario() Scenario {
	servers := r.i(2, 12)
	w := func() ior.Workload {
		pat := ior.Contiguous
		if r.i(0, 1) == 1 {
			pat = ior.Strided
		}
		return ior.Workload{
			Pattern:       pat,
			BlockSize:     int64(r.i(1, 8)) * miB,
			BlocksPerProc: r.i(1, 4),
			ReqBytes:      int64(r.i(1, 2)) * miB,
			CB:            ior.CollectiveBuffering{BufBytes: 8 * miB},
		}
	}
	return Scenario{
		Name: "random",
		FS: pfs.Config{
			Servers:     servers,
			StripeBytes: 256 << 10,
			ServerBW:    r.f(20, 120) * float64(miB),
		},
		ProcNIC:       r.f(2, 12) * float64(miB),
		CommBWPerProc: r.f(5, 40) * float64(miB),
		CommAlpha:     1e-6,
		CoordLatency:  1e-4,
		Apps: []AppSpec{
			{Name: "A", Procs: r.i(8, 256), Nodes: 0, W: w(), Gran: ior.PerRound},
			{Name: "B", Procs: r.i(8, 256), Nodes: 0, W: w(), Gran: ior.PerRound},
		},
	}
}
