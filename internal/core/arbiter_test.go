package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// shippedPolicies is every policy the package ships, dynamic with and without
// its interfere candidate: each must offer the indexed path and stay on the
// allocation-free side of it.
func shippedPolicies() []Policy {
	model := &PerfModel{FSBandwidth: 1e9, ProcNIC: 1e7}
	return []Policy{
		InterferePolicy{},
		FCFSPolicy{},
		InterruptPolicy{},
		DelayPolicy{Overlap: 0.5, Model: model},
		DynamicPolicy{Metric: CPUSecondsWasted{}, Model: model, AllowInterfere: true},
		DynamicPolicy{Metric: SumInterferenceFactors{Model: model}, Model: model},
		PriorityPolicy{Priorities: map[string]int{"app-3": 2, "app-05": 1}},
		FairSharePolicy{Quantum: 2},
	}
}

// TestIndexedMatchesMapDecisions pins the equivalence of the two ways to ask
// a policy: ArbitrateIndexed and the Decision that Arbitrate reads back from
// it must authorize exactly the same set of applications across a range of
// states, for every shipped policy.
func TestIndexedMatchesMapDecisions(t *testing.T) {
	policies := shippedPolicies()
	mkViews := func(n int, actives int) []AppView {
		vs := make([]AppView, n)
		for i := range vs {
			st := Waiting
			if i < actives {
				st = Active
			}
			vs[i] = AppView{
				Name: fmt.Sprintf("app-%02d", i), Cores: 16 * (i + 1), State: st,
				Arrival: float64(i), BytesTotal: 1e8 * float64(i+1), BytesDone: 1e7 * float64(i),
			}
		}
		return vs
	}
	for _, p := range policies {
		ip, ok := p.(IndexedArbitrator)
		if !ok {
			t.Fatalf("%s: no indexed path", p.Name())
		}
		for n := 1; n <= 5; n++ {
			for actives := 0; actives <= 1; actives++ {
				vs := mkViews(n, actives)
				dec := p.Arbitrate(100, vs)
				allowed := make([]bool, n)
				_, recheck := ip.ArbitrateIndexed(100, vs, allowed, new(Scratch))
				for i, v := range vs {
					if allowed[i] != dec.Allowed[v.Name] {
						t.Fatalf("%s n=%d actives=%d: %s indexed=%v map=%v",
							p.Name(), n, actives, v.Name, allowed[i], dec.Allowed[v.Name])
					}
				}
				if (recheck > 0) != (dec.RecheckAfter > 0) {
					t.Fatalf("%s n=%d: recheck indexed=%v map=%v", p.Name(), n, recheck, dec.RecheckAfter)
				}
			}
		}
	}
}

// TestArbiterBoundedLogRing exercises the ring: order is preserved across
// the wrap and LastRecord always points at the newest decision.
func TestArbiterBoundedLogRing(t *testing.T) {
	ar := NewArbiter(FCFSPolicy{})
	ar.SetLogBound(4)
	a, err := ar.Register("A", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		a.Inform(float64(i))
		out := ar.Arbitrate(float64(i))
		if !out.Acted {
			t.Fatal("no arbitration")
		}
		a.End()

		log := ar.Log()
		want := i + 1
		if want > 4 {
			want = 4
		}
		if len(log) != want {
			t.Fatalf("after %d decisions: log len %d, want %d", i+1, len(log), want)
		}
		for j := 1; j < len(log); j++ {
			if log[j].Time <= log[j-1].Time {
				t.Fatalf("log out of order: %+v", log)
			}
		}
		if last := ar.LastRecord(); last == nil || last.Time != float64(i) {
			t.Fatalf("LastRecord = %+v, want time %d", last, i)
		}
	}
}

// TestArbiterUnregisterPreservesOrder checks registration order (and with
// it deterministic grant delivery) survives removals.
func TestArbiterUnregisterPreservesOrder(t *testing.T) {
	ar := NewArbiter(InterferePolicy{})
	var apps []*AppState
	for i := 0; i < 5; i++ {
		a, err := ar.Register(fmt.Sprintf("app-%d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	ar.Unregister(apps[1])
	ar.Unregister(apps[3])
	ar.Unregister(apps[3]) // double unregister is a no-op
	got := ar.Apps()
	want := []string{"app-0", "app-2", "app-4"}
	if len(got) != len(want) {
		t.Fatalf("apps = %d, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name() != want[i] {
			t.Fatalf("apps[%d] = %s, want %s", i, a.Name(), want[i])
		}
	}
	// The freed name is reusable.
	if _, err := ar.Register("app-1", 1); err != nil {
		t.Fatal(err)
	}
	// All still-registered apps get granted and reported in order.
	now := 0.0
	for _, a := range ar.Apps() {
		a.Inform(now)
		now++
	}
	out := ar.Arbitrate(now)
	if len(out.Granted) != 4 {
		t.Fatalf("granted %d apps, want 4", len(out.Granted))
	}
	for i, a := range out.Granted {
		if want := ar.Apps()[i].Name(); a.Name() != want {
			t.Fatalf("grant order %d = %s, want %s", i, a.Name(), want)
		}
	}
}

// TestResetRestoresRegistrationCores: Prepare(KeyCores) overrides the view's
// core count for the phase; Reset must restore the registration value so a
// reused arbiter arbitrates exactly like a fresh one.
func TestResetRestoresRegistrationCores(t *testing.T) {
	ar := NewArbiter(FCFSPolicy{})
	a, err := ar.Register("a", 8)
	if err != nil {
		t.Fatal(err)
	}
	info := Info{}
	info.SetInt(KeyCores, 64)
	a.Prepare(info)
	if a.Cores() != 64 {
		t.Fatalf("cores after Prepare = %d, want 64", a.Cores())
	}
	ar.Reset()
	if a.Cores() != 8 {
		t.Fatalf("cores after Reset = %d, want the registration value 8", a.Cores())
	}
	if a.State() != Idle || a.Authorized() || len(ar.Log()) != 0 {
		t.Fatal("Reset left protocol state or log behind")
	}
}

// TestArbiterStaysAllocFree holds the arbitration hot path to zero
// allocations per grant cycle under every shipped policy, in both
// configurations that run it: the daemon shard's (a 256-record ring, as
// internal/server sets it) and the simulator's (unbounded, Reset between
// runs). Fcfs alone used to be guarded; delay allocated its formatted
// Name() into every record, dynamic a dozen slices, a map and a sentence
// per decision.
func TestArbiterStaysAllocFree(t *testing.T) {
	for _, p := range shippedPolicies() {
		for _, logBound := range []int{256, -1} {
			ar := NewArbiter(p)
			ar.SetLogBound(logBound)
			info := Info{}
			info.SetFloat(KeyBytesTotal, 1e8)
			apps := make([]*AppState, 8)
			for i := range apps {
				var err error
				if apps[i], err = ar.Register(fmt.Sprintf("app-%d", i), 16); err != nil {
					t.Fatal(err)
				}
			}
			// One run: every application prepares and informs, then each in
			// turn takes a step and ends its phase, a decision after every
			// verb as the shard loop and the Layer both take them.
			run := func() {
				now := 0.0
				for _, a := range apps {
					now++
					a.Prepare(info)
					a.Inform(now)
					ar.Arbitrate(now)
				}
				for _, a := range apps {
					now++
					if a.Authorized() && a.Activate() == nil {
						a.Progress(5e7)
						_ = a.Release() // just activated
					}
					ar.Arbitrate(now)
					a.End()
					_ = a.Complete() // prepared above
					ar.Arbitrate(now)
				}
				if logBound < 0 {
					ar.Reset()
				}
			}
			for i := 0; i < 300; i++ {
				run() // lap the ring until every slot has held its longest record
			}
			if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
				t.Errorf("%s, log bound %d: %.1f allocations per run, want 0", p.Name(), logBound, allocs)
			}
		}
	}
}

// TestSharedPolicyValueConcurrentArbiters decides with one DynamicPolicy
// value from two Arbiters on two goroutines, as a daemon's shards, a
// replay's machines and a sweep's workers do: under -race this is the
// property that keeps the model scratch in the Arbiter and out of the policy
// value. Both must also reach the decisions a lone Arbiter reaches.
func TestSharedPolicyValueConcurrentArbiters(t *testing.T) {
	model := &PerfModel{FSBandwidth: 1e9, ProcNIC: 1e7}
	var pol Policy = DynamicPolicy{Metric: CPUSecondsWasted{}, Model: model, AllowInterfere: true}
	run := func() []string {
		ar := NewArbiter(pol)
		apps := make([]*AppState, 6)
		for i := range apps {
			apps[i], _ = ar.Register(fmt.Sprintf("app-%d", i), 16<<i)
		}
		info := Info{}
		var reasons []string
		now := 0.0
		decide := func() {
			now++
			reasons = append(reasons, fmt.Sprint(ar.Arbitrate(now).Reason, ar.LastRecord().Allowed))
		}
		for round := 0; round < 50; round++ {
			for i, a := range apps {
				info.SetFloat(KeyBytesTotal, 1e8*float64(1+(i+round)%5))
				a.Prepare(info)
				a.Inform(now)
				decide()
			}
			for _, a := range apps {
				if a.Authorized() && a.Activate() == nil {
					decide()
					a.Progress(3e7)
					_ = a.Release() // just activated
				}
				decide()
				a.End()
				_ = a.Complete() // prepared above
				decide()
			}
		}
		return reasons
	}
	want := run()
	got := make([][]string, 2)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = run()
		}()
	}
	wg.Wait()
	for g := range got {
		if !slices.Equal(got[g], want) {
			t.Errorf("goroutine %d decided differently from a lone arbiter", g)
		}
	}
}
