package delta

import (
	"testing"

	"repro/internal/ior"
	"repro/internal/pfs"
)

// sweepScenario is a small TrueNetwork two-app scenario, the shape the
// macro benchmarks sweep.
func sweepScenario() Scenario {
	w := ior.Workload{Pattern: ior.Contiguous, BlockSize: 8 << 20, BlocksPerProc: 1, ReqBytes: 2 << 20}
	return Scenario{
		Name:        "sweeper-test",
		FS:          pfs.Config{Servers: 4, StripeBytes: 1 << 20, ServerBW: 500e6},
		ProcNIC:     50e6,
		TrueNetwork: true,
		Apps: []AppSpec{
			{Name: "A", Procs: 64, Nodes: 16, W: w, Gran: ior.PerRound},
			{Name: "B", Procs: 64, Nodes: 16, W: w, Gran: ior.PerRound},
		},
	}
}

func seriesEqual(t *testing.T, a, b Series) {
	t.Helper()
	if a.Policy != b.Policy || a.SoloA != b.SoloA || a.SoloB != b.SoloB {
		t.Fatalf("series headers differ: %+v vs %+v", a.Policy, b.Policy)
	}
	for _, pair := range [][2][]float64{
		{a.DT, b.DT}, {a.TimeA, b.TimeA}, {a.TimeB, b.TimeB},
		{a.FactorA, b.FactorA}, {a.FactorB, b.FactorB}, {a.CPUPerCore, b.CPUPerCore},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("series lengths differ: %d vs %d", len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("series diverge at %d: %v vs %v", i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestSweeperReuseBitIdentical pins the Sweeper contract: repeated sweeps
// on one executor — and sweeps of different point sets interleaved — are
// bit-identical to fresh Scenario.Sweep runs.
func TestSweeperReuseBitIdentical(t *testing.T) {
	sc := sweepScenario()
	dts := []float64{-4, -1, 0, 1, 4}
	fresh := sc.Sweep(Uncoordinated, dts)

	sw := NewSweeper()
	first := sw.Sweep(sc, Uncoordinated, dts)
	seriesEqual(t, fresh, first)

	// A different point set on the same executor, then the original again.
	sw.Sweep(sc, Uncoordinated, []float64{-2, 2})
	var again Series
	sw.SweepInto(&again, sc, Uncoordinated, dts)
	seriesEqual(t, fresh, again)
}

// TestSweeperSteadyStateAllocs guards the ROADMAP open item, now closed:
// with a persistent executor — worker goroutines kept alive and fed through
// channels — and a reused Series, the marginal sweep allocates NOTHING: no
// platform construction, no solo recalibration, no goroutine spawn, no
// output growth. AllocsPerRun counts mallocs process-wide, so the workers'
// sweep points are measured too.
func TestSweeperSteadyStateAllocs(t *testing.T) {
	sc := sweepScenario()
	dts := []float64{-4, -1, 0, 1, 4}
	// One Sweeper per policy family; a coordinated sweep is held to the
	// same zero as the uncoordinated one.
	for _, c := range []struct {
		name    string
		factory PolicyFactory
	}{{"uncoordinated", Uncoordinated}, {"fcfs", FCFS}, {"delay", Delay(0.5)}} {
		sw := NewSweeper()
		defer sw.Close()
		var s Series
		sw.SweepInto(&s, sc, c.factory, dts) // build platforms, size backing
		sw.SweepInto(&s, sc, c.factory, dts) // settle any lazy growth

		allocs := testing.AllocsPerRun(5, func() {
			sw.SweepInto(&s, sc, c.factory, dts)
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state SweepInto allocates %.1f objects per sweep, want 0", c.name, allocs)
		}
	}
}

// TestSweeperCloseStopsWorkers: after Close the workers are gone and reuse
// panics loudly instead of hanging on a closed feed channel.
func TestSweeperCloseStopsWorkers(t *testing.T) {
	sc := sweepScenario()
	sw := NewSweeper()
	sw.Sweep(sc, Uncoordinated, []float64{0})
	sw.Close()
	sw.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("SweepInto after Close did not panic")
		}
	}()
	var s Series
	sw.SweepInto(&s, sc, Uncoordinated, []float64{0})
}
