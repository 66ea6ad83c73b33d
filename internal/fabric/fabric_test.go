package fabric

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/approx"
	"repro/internal/fluid"
	"repro/internal/sim"
)

func TestSingleLinkSingleFlow(t *testing.T) {
	eng := sim.NewEngine()
	fb := New(eng)
	l := fb.NewLink("l", 100)
	var done float64
	fb.Start("f", 1000, 1, []*Link{l}, func() { done = eng.Now() })
	eng.Run()
	if !approx.Equal(done, 10, 1e-9) {
		t.Fatalf("done = %v, want 10", done)
	}
}

func TestBottleneckIsTightestLink(t *testing.T) {
	eng := sim.NewEngine()
	fb := New(eng)
	nic := fb.NewLink("nic", 10)
	server := fb.NewLink("srv", 100)
	var done float64
	fb.Start("f", 100, 1, []*Link{nic, server}, func() { done = eng.Now() })
	eng.Run()
	if !approx.Equal(done, 10, 1e-9) {
		t.Fatalf("done = %v, want 10 (NIC bound)", done)
	}
}

func TestClassicMaxMinExample(t *testing.T) {
	// Two flows share link L1 (cap 10); flow 2 also crosses L2 (cap 3).
	// Max-min: flow 2 gets 3 (bottleneck L2), flow 1 gets 7.
	eng := sim.NewEngine()
	fb := New(eng)
	l1 := fb.NewLink("l1", 10)
	l2 := fb.NewLink("l2", 3)
	f1 := fb.Start("f1", 1e6, 1, []*Link{l1}, nil)
	f2 := fb.Start("f2", 1e6, 1, []*Link{l1, l2}, nil)
	if !approx.Equal(f1.Rate(), 7, 1e-9) {
		t.Fatalf("f1 rate = %v, want 7", f1.Rate())
	}
	if !approx.Equal(f2.Rate(), 3, 1e-9) {
		t.Fatalf("f2 rate = %v, want 3", f2.Rate())
	}
	f1.Cancel()
	f2.Cancel()
	eng.Run()
}

func TestWeightedShares(t *testing.T) {
	eng := sim.NewEngine()
	fb := New(eng)
	l := fb.NewLink("l", 100)
	f1 := fb.Start("f1", 1e6, 3, []*Link{l}, nil)
	f2 := fb.Start("f2", 1e6, 1, []*Link{l}, nil)
	if !approx.Equal(f1.Rate(), 75, 1e-9) || !approx.Equal(f2.Rate(), 25, 1e-9) {
		t.Fatalf("rates %v/%v, want 75/25", f1.Rate(), f2.Rate())
	}
	f1.Cancel()
	f2.Cancel()
	eng.Run()
}

func TestFreedCapacityRedistributes(t *testing.T) {
	eng := sim.NewEngine()
	fb := New(eng)
	l := fb.NewLink("l", 100)
	var t1, t2 float64
	fb.Start("f1", 500, 1, []*Link{l}, func() { t1 = eng.Now() })
	fb.Start("f2", 1000, 1, []*Link{l}, func() { t2 = eng.Now() })
	eng.Run()
	// Both at 50 until f1 finishes at t=10; f2 then gets 100 for its
	// remaining 500: t2 = 15.
	if !approx.Equal(t1, 10, 1e-9) || !approx.Equal(t2, 15, 1e-9) {
		t.Fatalf("t1=%v t2=%v, want 10, 15", t1, t2)
	}
}

func TestSetCapacityMidFlight(t *testing.T) {
	eng := sim.NewEngine()
	fb := New(eng)
	l := fb.NewLink("l", 100)
	var done float64
	fb.Start("f", 1000, 1, []*Link{l}, func() { done = eng.Now() })
	eng.Schedule(5, func() { l.SetCapacity(50) })
	eng.Run()
	// 500 at 100, then 500 at 50: t = 15.
	if !approx.Equal(done, 15, 1e-9) {
		t.Fatalf("done = %v, want 15", done)
	}
}

func TestCancelNeverCompletes(t *testing.T) {
	eng := sim.NewEngine()
	fb := New(eng)
	l := fb.NewLink("l", 100)
	f := fb.Start("f", 1e9, 1, []*Link{l}, func() { t.Error("cancelled flow completed") })
	eng.Schedule(1, f.Cancel)
	eng.Run()
	if f.Done() {
		t.Fatal("cancelled flow reports done")
	}
	if f.Remaining() != 0 {
		t.Fatal("cancelled flow should report zero remaining")
	}
}

func TestZeroCapacityLinkStalls(t *testing.T) {
	eng := sim.NewEngine()
	fb := New(eng)
	l := fb.NewLink("l", 0)
	f := fb.Start("f", 100, 1, []*Link{l}, nil)
	if f.Rate() != 0 {
		t.Fatalf("rate = %v, want 0", f.Rate())
	}
	eng.Schedule(5, func() { l.SetCapacity(100) })
	var done bool
	eng.Schedule(10, func() { done = f.Done() })
	eng.Run()
	if !done {
		t.Fatal("flow should complete after capacity restored")
	}
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	fb := New(eng)
	l := fb.NewLink("l", 10)
	other := New(eng).NewLink("x", 10)
	cases := []func(){
		func() { fb.Start("f", -1, 1, []*Link{l}, nil) },
		func() { fb.Start("f", 1, 0, []*Link{l}, nil) },
		func() { fb.Start("f", 1, 1, nil, nil) },
		func() { fb.Start("f", 1, 1, []*Link{other}, nil) },
		func() { fb.NewLink("bad", -1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: on a single link, the fabric agrees with the fluid resource
// (same water-filling semantics, no caps).
func TestPropertySingleLinkMatchesFluid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		capacity := 10 + rng.Float64()*1000
		works := make([]float64, n)
		weights := make([]float64, n)
		for i := range works {
			works[i] = 1 + rng.Float64()*1e5
			weights[i] = 1 + rng.Float64()*8
		}

		eng1 := sim.NewEngine()
		fb := New(eng1)
		l := fb.NewLink("l", capacity)
		gotFab := make([]float64, n)
		for i := range works {
			i := i
			fb.Start("f", works[i], weights[i], []*Link{l}, func() { gotFab[i] = eng1.Now() })
		}
		eng1.Run()

		eng2 := sim.NewEngine()
		r := fluid.NewResource(eng2, "r", capacity)
		gotFluid := make([]float64, n)
		for i := range works {
			i := i
			r.Submit("j", works[i], weights[i], 0, func() { gotFluid[i] = eng2.Now() })
		}
		eng2.Run()

		for i := range works {
			if !approx.Equal(gotFab[i], gotFluid[i], 1e-6) {
				t.Logf("seed %d flow %d: fabric %v fluid %v", seed, i, gotFab[i], gotFluid[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: rates never exceed any crossed link's capacity, and a
// saturated link is fully used while it has flows.
func TestPropertyCapacityRespected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		fb := New(eng)
		nlinks := 2 + rng.Intn(4)
		links := make([]*Link, nlinks)
		for i := range links {
			links[i] = fb.NewLink("l", 10+rng.Float64()*100)
		}
		nflows := 1 + rng.Intn(8)
		flows := make([]*Flow, nflows)
		paths := make([][]*Link, nflows)
		for i := range flows {
			// Random subset of links (at least one).
			var path []*Link
			for _, l := range links {
				if rng.Intn(2) == 0 {
					path = append(path, l)
				}
			}
			if len(path) == 0 {
				path = append(path, links[rng.Intn(nlinks)])
			}
			flows[i] = fb.Start("f", 1e9, 1+rng.Float64()*4, path, nil)
			paths[i] = path
		}
		linkRate := func(l *Link) float64 {
			var sum float64
			for i, path := range paths {
				if slices.Contains(path, l) {
					sum += flows[i].Rate()
				}
			}
			return sum
		}
		ok := true
		for _, l := range links {
			if sum := linkRate(l); sum > l.Capacity()*(1+1e-9) {
				t.Logf("seed %d: link over capacity: %v > %v", seed, sum, l.Capacity())
				ok = false
			}
		}
		// Max-min property: every flow is bottlenecked somewhere — it
		// crosses at least one saturated link.
		for i, fl := range flows {
			bottlenecked := false
			for _, l := range paths[i] {
				sum := linkRate(l)
				if sum >= l.Capacity()*(1-1e-9) {
					bottlenecked = true
				}
			}
			if !bottlenecked && !math.IsInf(fl.Rate(), 1) {
				t.Logf("seed %d: flow with rate %v not bottlenecked", seed, fl.Rate())
				ok = false
			}
		}
		for _, fl := range flows {
			fl.Cancel()
		}
		eng.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: total work is conserved — sum of (work / avg rate over time)
// equality is awkward, so check the simpler invariant: a fully shared
// single-bottleneck fabric drains exactly at capacity.
func TestPropertyDrainAtCapacity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		eng := sim.NewEngine()
		fb := New(eng)
		l := fb.NewLink("l", 100)
		total := 0.0
		n := 1 + rng.Intn(6)
		var last float64
		for i := 0; i < n; i++ {
			w := 100 + rng.Float64()*1e4
			total += w
			fb.Start("f", w, 1+rng.Float64()*3, []*Link{l}, func() { last = eng.Now() })
		}
		eng.Run()
		return approx.Equal(last, total/100, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCompletionCallbackTotalOrder pins the documented completion dispatch
// order: a simultaneous batch runs its callbacks sorted by (name, total,
// creation id) — a total order, so even identical names and sizes dispatch
// in creation order, run after run.
func TestCompletionCallbackTotalOrder(t *testing.T) {
	for run := 0; run < 5; run++ {
		eng := sim.NewEngine()
		fb := New(eng)
		l := fb.NewLink("l", 100)
		var order []int
		// Same name and same total: only the creation id breaks the tie.
		for i := 0; i < 6; i++ {
			i := i
			fb.Start("twin", 500, 1, []*Link{l}, func() { order = append(order, i) })
		}
		eng.Run()
		if len(order) != 6 {
			t.Fatalf("run %d: %d callbacks, want 6", run, len(order))
		}
		for i := range order {
			if order[i] != i {
				t.Fatalf("run %d: callback order = %v, want creation order", run, order)
			}
		}
	}
}

// TestBatchedCompletions: N flows finishing at the same instant are removed
// in one batch and the survivors' rates reflect a single refill.
func TestBatchedCompletions(t *testing.T) {
	eng := sim.NewEngine()
	fb := New(eng)
	l := fb.NewLink("l", 100)
	var finishedAt []float64
	for i := 0; i < 4; i++ {
		fb.Start("short", 100, 1, []*Link{l}, func() { finishedAt = append(finishedAt, eng.Now()) })
	}
	long := fb.Start("long", 1000, 1, []*Link{l}, nil)
	// Each of the 5 flows gets 20; the four shorts finish together at t=5.
	eng.RunUntil(5.0)
	if len(finishedAt) != 4 {
		t.Fatalf("%d flows finished, want 4 (batch)", len(finishedAt))
	}
	for _, at := range finishedAt {
		if !approx.Equal(at, 5, 1e-9) {
			t.Fatalf("finish times %v, want all 5", finishedAt)
		}
	}
	if !approx.Equal(long.Rate(), 100, 1e-9) {
		t.Fatalf("survivor rate = %v, want 100 after batch refill", long.Rate())
	}
}

// TestReassignDeterministicRates: identical construction sequences produce
// bit-identical rates — the solver's float accumulation order is fixed by
// the dense ID iteration, with no map-order dependence.
func TestReassignDeterministicRates(t *testing.T) {
	build := func() []float64 {
		eng := sim.NewEngine()
		fb := New(eng)
		links := make([]*Link, 8)
		for i := range links {
			links[i] = fb.NewLink("l", 10+float64(i)*3.7)
		}
		var flows []*Flow
		for i := 0; i < 32; i++ {
			path := []*Link{links[i%8], links[(i*3+1)%8]}
			flows = append(flows, fb.Start("f", 1e9, 1+float64(i%5)*0.31, path, nil))
		}
		rates := make([]float64, len(flows))
		for i, f := range flows {
			rates[i] = f.Rate()
		}
		return rates
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d: rate %v vs %v — solver is nondeterministic", i, a[i], b[i])
		}
	}
}

// TestReassignSteadyStateAllocFree locks in the solver's headline property:
// with a populated fabric and no flow churn, advance+reassign allocates
// nothing.
func TestReassignSteadyStateAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	fb := New(eng)
	nic := fb.NewLink("nic", 4e9)
	servers := make([]*Link, 8)
	for i := range servers {
		servers[i] = fb.NewLink("srv", 1e9)
	}
	for i := 0; i < 32; i++ {
		fb.Start("f", 1e18, 1+float64(i%3), []*Link{nic, servers[i%8]}, nil)
	}
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		servers[0].SetCapacity(1e9 + float64(n&1)*1e8)
		n++
	})
	if allocs != 0 {
		t.Fatalf("steady-state reassign allocates %.1f objects/op, want 0", allocs)
	}
}
