package fluid

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/approx"
	"repro/internal/sim"
)

func TestSingleJobFullRate(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "r", 100)
	var done float64 = -1
	r.Submit("j", 1000, 1, 0, func() { done = e.Now() })
	e.Run()
	if !approx.Equal(done, 10, 1e-9) {
		t.Fatalf("completion at %v, want 10", done)
	}
}

func TestEqualSharing(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "r", 100)
	var t1, t2 float64
	r.Submit("a", 1000, 1, 0, func() { t1 = e.Now() })
	r.Submit("b", 1000, 1, 0, func() { t2 = e.Now() })
	e.Run()
	// Both share 50/50 and finish together at t=20.
	if !approx.Equal(t1, 20, 1e-9) || !approx.Equal(t2, 20, 1e-9) {
		t.Fatalf("completions %v %v, want 20 20", t1, t2)
	}
}

func TestWeightedSharing(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "r", 100)
	var tBig, tSmall float64
	// Big gets 3/4 of capacity, small 1/4.
	r.Submit("big", 300, 3, 0, func() { tBig = e.Now() })
	r.Submit("small", 100, 1, 0, func() { tSmall = e.Now() })
	e.Run()
	if !approx.Equal(tBig, 4, 1e-9) || !approx.Equal(tSmall, 4, 1e-9) {
		t.Fatalf("completions big=%v small=%v, want 4 4", tBig, tSmall)
	}
}

func TestRateCapRedistribution(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "r", 100)
	var tCapped, tFree float64
	// Capped job limited to 10; the other should get 90.
	r.Submit("capped", 100, 1, 10, func() { tCapped = e.Now() })
	r.Submit("free", 900, 1, 0, func() { tFree = e.Now() })
	e.Run()
	if !approx.Equal(tCapped, 10, 1e-9) {
		t.Fatalf("capped done at %v, want 10", tCapped)
	}
	if !approx.Equal(tFree, 10, 1e-9) {
		t.Fatalf("free done at %v, want 10 (90 B/s for 900)", tFree)
	}
}

func TestLateArrivalSlowsFirst(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "r", 100)
	var tA, tB float64
	r.Submit("a", 1000, 1, 0, func() { tA = e.Now() })
	e.Schedule(5, func() {
		r.Submit("b", 1000, 1, 0, func() { tB = e.Now() })
	})
	e.Run()
	// A runs alone 5s (500 done), then shares: remaining 500 at 50 B/s -> 15.
	if !approx.Equal(tA, 15, 1e-9) {
		t.Fatalf("tA = %v, want 15", tA)
	}
	// B: 500 done by t=15, then alone: 500 at 100 -> t=20.
	if !approx.Equal(tB, 20, 1e-9) {
		t.Fatalf("tB = %v, want 20", tB)
	}
}

func TestCancelReleasesShare(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "r", 100)
	var tB float64
	ja := r.Submit("a", 1e6, 1, 0, func() { t.Error("cancelled job completed") })
	r.Submit("b", 1000, 1, 0, func() { tB = e.Now() })
	e.Schedule(5, func() { ja.Cancel() })
	e.Run()
	// B gets 50 B/s for 5s (250), then full 100: (1000-250)/100 = 7.5 -> 12.5.
	if !approx.Equal(tB, 12.5, 1e-9) {
		t.Fatalf("tB = %v, want 12.5", tB)
	}
	if ja.Done() {
		t.Fatal("cancelled job reports done")
	}
}

func TestSetCapacity(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "r", 100)
	var done float64
	r.Submit("j", 1000, 1, 0, func() { done = e.Now() })
	e.Schedule(5, func() { r.SetCapacity(50) })
	e.Run()
	// 500 at 100, then 500 at 50 -> 5 + 10 = 15.
	if !approx.Equal(done, 15, 1e-9) {
		t.Fatalf("done = %v, want 15", done)
	}
}

func TestZeroCapacityStalls(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "r", 0)
	r.Submit("j", 1000, 1, 0, nil)
	e.Schedule(10, func() { r.SetCapacity(100) })
	var done float64
	r.Submit("k", 500, 1, 0, func() { done = e.Now() })
	e.Run()
	// From t=10: 1500 total work, k has 500 weight-1 of 2 jobs: k at 50 B/s
	// finishes at t=20; j continues.
	if !approx.Equal(done, 20, 1e-9) {
		t.Fatalf("done = %v, want 20", done)
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "r", 100)
	fired := false
	r.Submit("empty", 0, 1, 0, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("zero-work job never completed")
	}
}

func TestRemainingQuery(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "r", 100)
	j := r.Submit("j", 1000, 1, 0, nil)
	e.Schedule(3, func() {
		if got := j.Remaining(); !approx.Equal(got, 700, 1e-9) {
			t.Errorf("remaining = %v, want 700", got)
		}
	})
	e.Run()
	if j.Remaining() != 0 {
		t.Fatalf("remaining after completion = %v", j.Remaining())
	}
}

func TestSubmitValidation(t *testing.T) {
	e := sim.NewEngine()
	r := NewResource(e, "r", 10)
	for _, tc := range []struct {
		name               string
		work, weight, rcap float64
	}{
		{"negative work", -1, 1, 0},
		{"zero weight", 1, 0, 0},
		{"negative cap", 1, 1, -2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			r.Submit("x", tc.work, tc.weight, tc.rcap, nil)
		}()
	}
}

// Property: simulated completions match the analytic solver for concurrent
// same-start jobs.
func TestPropertySimMatchesSolver(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		flows := make([]Flow, n)
		for i := range flows {
			flows[i] = Flow{
				Work:   1 + rng.Float64()*1e6,
				Weight: 1 + rng.Float64()*10,
			}
			if rng.Intn(2) == 0 {
				flows[i].Cap = 1 + rng.Float64()*100
			}
		}
		capacity := 10 + rng.Float64()*1000
		want := FinishTimes(capacity, flows)

		e := sim.NewEngine()
		r := NewResource(e, "r", capacity)
		got := make([]float64, n)
		for i, fl := range flows {
			i := i
			r.Submit("j", fl.Work, fl.Weight, fl.Cap, func() { got[i] = e.Now() })
		}
		e.Run()
		for i := range got {
			if !approx.Equal(got[i], want[i], 1e-6) {
				t.Logf("seed %d: job %d sim=%v solver=%v", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: work is conserved — the sum of completed work equals the input,
// and completion times are consistent with capacity (total work / capacity
// <= makespan when nothing is capped).
func TestPropertyWorkConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		capacity := 50 + rng.Float64()*500
		var total float64
		flows := make([]Flow, n)
		for i := range flows {
			flows[i] = Flow{Work: 1 + rng.Float64()*1e5, Weight: 1 + rng.Float64()*5}
			total += flows[i].Work
		}
		fin := FinishTimes(capacity, flows)
		makespan := 0.0
		for _, t := range fin {
			if t > makespan {
				makespan = t
			}
		}
		// With no caps the resource is fully utilized until the last
		// completion: makespan == total/capacity.
		return approx.Equal(makespan, total/capacity, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: staggered solver agrees with simulated late arrivals.
func TestPropertyStaggeredMatchesSim(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(5)
		capacity := 10 + rng.Float64()*200
		flows := make([]Flow, n)
		starts := make([]float64, n)
		for i := range flows {
			flows[i] = Flow{Work: 1 + rng.Float64()*1e4, Weight: 1 + rng.Float64()*4}
			if rng.Intn(3) == 0 {
				flows[i].Cap = 1 + rng.Float64()*50
			}
			starts[i] = rng.Float64() * 20
		}
		want := StaggeredFinishTimes(capacity, flows, starts)

		e := sim.NewEngine()
		r := NewResource(e, "r", capacity)
		got := make([]float64, n)
		for i, fl := range flows {
			i, fl := i, fl
			e.At(starts[i], func() {
				r.Submit("j", fl.Work, fl.Weight, fl.Cap, func() { got[i] = e.Now() })
			})
		}
		e.Run()
		for i := range got {
			if !approx.Equal(got[i], want[i], 1e-6) {
				t.Logf("seed %d: job %d sim=%v solver=%v", seed, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestFinishTimesInfinity(t *testing.T) {
	fin := FinishTimes(0, []Flow{{Work: 10, Weight: 1}})
	if !math.IsInf(fin[0], 1) {
		t.Fatalf("expected +Inf for zero capacity, got %v", fin[0])
	}
}

func TestStaggeredSimpleOverlap(t *testing.T) {
	// Two equal flows, second arrives at t=5: the paper's expected model.
	flows := []Flow{{Work: 1000, Weight: 1}, {Work: 1000, Weight: 1}}
	fin := StaggeredFinishTimes(100, flows, []float64{0, 5})
	// A alone 5s -> 500 left shared at 50 -> done t=15.
	// B: 500 done by 15, then alone -> t=20.
	if !approx.Equal(fin[0], 15, 1e-9) || !approx.Equal(fin[1], 20, 1e-9) {
		t.Fatalf("fin = %v, want [15 20]", fin)
	}
}

// TestSolverReuseMatchesFresh: a Solver reused across many differently-sized
// problems must return exactly what a fresh computation returns — stale
// scratch state must never leak between calls.
func TestSolverReuseMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var reused Solver
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		capacity := 1 + rng.Float64()*100
		flows := make([]Flow, n)
		starts := make([]float64, n)
		for i := range flows {
			flows[i] = Flow{Work: rng.Float64() * 1e4, Weight: 1 + rng.Float64()*4}
			if rng.Intn(3) == 0 {
				flows[i].Cap = rng.Float64() * 20
			}
			starts[i] = rng.Float64() * 50
		}
		got := reused.FinishTimes(capacity, flows)
		want := FinishTimes(capacity, flows)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d flow %d: reused %v fresh %v", trial, i, got[i], want[i])
			}
		}
		gotS := reused.StaggeredFinishTimes(capacity, flows, starts)
		wantS := StaggeredFinishTimes(capacity, flows, starts)
		for i := range gotS {
			if gotS[i] != wantS[i] && !(math.IsNaN(gotS[i]) && math.IsNaN(wantS[i])) {
				t.Fatalf("trial %d flow %d staggered: reused %v fresh %v", trial, i, gotS[i], wantS[i])
			}
		}
	}
}

// TestReallocateReentrant: OnRateChange may re-enter reallocate (the disk
// cache model's documented pattern). A re-entrant call that itself
// completes a job must not corrupt the outer call's completion batch.
func TestReallocateReentrant(t *testing.T) {
	eng := sim.NewEngine()
	r := NewResource(eng, "r", 100)
	var completed []string
	reentered := false
	r.OnRateChange = func(float64) {
		if !reentered && eng.Now() > 0 {
			reentered = true
			// Zero-work job: completes inside this nested reallocate.
			r.Submit("nested", 0, 1, 0, func() { completed = append(completed, "nested") })
		}
	}
	r.Submit("outer", 100, 1, 0, func() { completed = append(completed, "outer") })
	eng.Run()
	if len(completed) != 2 {
		t.Fatalf("completed = %v, want both callbacks", completed)
	}
}

func TestNaNCapacityPanics(t *testing.T) {
	eng := sim.NewEngine()
	r := NewResource(eng, "r", 100)
	for i, fn := range []func(){
		func() { NewResource(eng, "bad", math.NaN()) },
		func() { r.SetCapacity(math.NaN()) },
		func() { r.Submit("j", 1, math.NaN(), 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic on NaN", i)
				}
			}()
			fn()
		}()
	}
}

// TestInfiniteWorkNeverFinishes: the completion tolerance scales with a
// flow's total work, so an infinite flow used to count as done at the first
// other completion. It never finishes — and keeps its share of the capacity
// while the finite flows do.
func TestInfiniteWorkNeverFinishes(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		name  string
		flows []Flow
		want  []float64
	}{
		{"alone", []Flow{{Work: inf, Weight: 1}}, []float64{inf}},
		{"beside a finite flow", []Flow{{Work: 100, Weight: 1}, {Work: inf, Weight: 1}}, []float64{2, inf}},
		{"capped, beside two", []Flow{{Work: inf, Weight: 1, Cap: 20}, {Work: 80, Weight: 1}, {Work: 160, Weight: 1}}, []float64{inf, 2, 3}},
		{"all infinite", []Flow{{Work: inf, Weight: 1}, {Work: inf, Weight: 2}}, []float64{inf, inf}},
	} {
		got := FinishTimes(100, tc.flows)
		staggered := StaggeredFinishTimes(100, tc.flows, make([]float64, len(tc.flows)))
		for i := range tc.want {
			if !approx.Equal(got[i], tc.want[i], 1e-9) {
				t.Errorf("%s: FinishTimes = %v, want %v", tc.name, got, tc.want)
				break
			}
			if !approx.Equal(staggered[i], tc.want[i], 1e-9) {
				t.Errorf("%s: StaggeredFinishTimes = %v, want %v", tc.name, staggered, tc.want)
				break
			}
		}
	}
}

// TestStaggeredSliverBelowClockResolution: at now ≈ 2.1855e6 the fourth flow
// has 0.305 units left, above its tolerance, and at 3.6e9 units/s their time
// is below half an ulp of now, so the step to its completion is empty. The
// flow that ends a step finishes there; before, the loop stepped in place
// forever. The call runs under a deadline so that a regression fails.
func TestStaggeredSliverBelowClockResolution(t *testing.T) {
	flows := []Flow{
		{Work: 5.372820936538049e+06, Weight: 2.3131425615609404},
		{Work: 9.850095778902446e+10, Weight: 1.2909085567434537},
		{Work: 104.51058861587306, Weight: 2.1419715678990583},
		{Work: 13309.377582841802, Weight: 3.037254027760649},
	}
	starts := []float64{424637.4970712657, 300911.8605852871, 31.805817433032985, 2.185530525927643e+06}
	got := make(chan []float64, 1)
	go func() { got <- StaggeredFinishTimes(3.60871416856906e+09, flows, starts) }()
	select {
	case fin := <-got:
		for i, f := range fin {
			if !(f >= starts[i]) || math.IsInf(f, 1) {
				t.Fatalf("flow %d: finish %v for start %v", i, f, starts[i])
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("StaggeredFinishTimes did not return within 10s")
	}
}
