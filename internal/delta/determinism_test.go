package delta

import (
	"runtime"
	"testing"

	"repro/internal/platform"
)

// fabricScenario is testScenario under the explicit-fabric contention model
// — the mode whose solver used to iterate Go maps while accumulating
// floats, a latent per-run nondeterminism.
func fabricScenario() Scenario {
	sc := testScenario()
	sc.TrueNetwork = true
	return sc
}

func runOnce(sc Scenario) Result {
	return sc.Run(FCFS, []float64{0, 3})
}

func sameResult(a, b Result) bool {
	if a.Makespan != b.Makespan || len(a.IOTime) != len(b.IOTime) {
		return false
	}
	for i := range a.IOTime {
		if a.IOTime[i] != b.IOTime[i] {
			return false
		}
	}
	return true
}

// TestTrueNetworkRunDeterministic: the same TrueNetwork scenario run twice
// must produce bit-identical Results — not merely within tolerance. The
// fabric solver iterates links and flows in dense ID order, so its float
// accumulation order (and thus every rate and completion time) is fixed.
func TestTrueNetworkRunDeterministic(t *testing.T) {
	sc := fabricScenario()
	a := runOnce(sc)
	for i := 0; i < 3; i++ {
		if b := runOnce(sc); !sameResult(a, b) {
			t.Fatalf("run %d diverged: %+v vs %+v", i, a.IOTime, b.IOTime)
		}
	}
}

// TestSweepDeterministicAcrossGOMAXPROCS: a parallel sweep's outputs must
// not depend on how many workers ran it — each point is its own engine, and
// worker scheduling only changes who computes a point, never its value.
func TestSweepDeterministicAcrossGOMAXPROCS(t *testing.T) {
	sc := fabricScenario()
	dts := []float64{-4, -1, 0, 1, 2, 4, 7}

	prev := runtime.GOMAXPROCS(1)
	serial := sc.Sweep(FCFS, dts)
	runtime.GOMAXPROCS(prev)
	parallel := sc.Sweep(FCFS, dts)

	for k := range dts {
		if serial.TimeA[k] != parallel.TimeA[k] || serial.TimeB[k] != parallel.TimeB[k] {
			t.Fatalf("dt=%v: serial (%v, %v) vs parallel (%v, %v)",
				dts[k], serial.TimeA[k], serial.TimeB[k], parallel.TimeA[k], parallel.TimeB[k])
		}
		if serial.FactorA[k] != parallel.FactorA[k] || serial.FactorB[k] != parallel.FactorB[k] ||
			serial.CPUPerCore[k] != parallel.CPUPerCore[k] {
			t.Fatalf("dt=%v: derived metrics diverged across GOMAXPROCS", dts[k])
		}
	}

	// And the whole sweep replays bit-identically.
	again := sc.Sweep(FCFS, dts)
	for k := range dts {
		if parallel.TimeA[k] != again.TimeA[k] || parallel.TimeB[k] != again.TimeB[k] {
			t.Fatalf("dt=%v: sweep not reproducible run-to-run", dts[k])
		}
	}
}

// TestSweepPointSteadyStateAllocFree guards the resettable-platform
// property the sweep workers rely on, alongside the fabric and engine alloc
// guards: from the 2nd point on, a reused platform runs a TrueNetwork sweep
// point with zero allocations — per-point cost is pure simulation, no
// object-graph churn — and a coordination layer on top changes nothing about
// that: pokes, decisions, their logged reasons, grants and waits all run on
// reused storage under every policy with an indexed form.
func TestSweepPointSteadyStateAllocFree(t *testing.T) {
	sc := fabricScenario()
	for _, c := range []struct {
		name    string
		factory PolicyFactory
	}{
		{"uncoordinated", Uncoordinated}, {"fcfs", FCFS}, {"interrupt", Interrupt},
		{"interfere", Interfere}, {"delay", Delay(0.5)},
	} {
		pl := platform.NewPool().Acquire(sc.Spec(), c.factory)
		starts := []float64{0, 0}
		dts := []float64{-1, 0, 1, 3}
		run := func(dt float64) {
			starts[0], starts[1] = 0, dt
			if dt < 0 {
				starts[0], starts[1] = -dt, 0
			}
			pl.Run(starts, nil)
		}
		run(dts[0]) // first point builds the pools
		for _, dt := range dts {
			if allocs := testing.AllocsPerRun(20, func() { run(dt) }); allocs != 0 {
				t.Errorf("%s dt=%v: steady-state sweep point allocates %.1f objects, want 0", c.name, dt, allocs)
			}
		}
	}
}
