package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

// shippedPolicies is every policy the package ships, dynamic with and without
// its interfere candidate: each must decide without allocating.
func shippedPolicies() []Policy {
	model := &PerfModel{FSBandwidth: 1e9, ProcNIC: 1e7}
	return []Policy{
		InterferePolicy{},
		FCFSPolicy{},
		InterruptPolicy{},
		DelayPolicy{Overlap: 0.5, Model: model},
		DynamicPolicy{Metric: CPUSecondsWasted{}, Model: model, AllowInterfere: true},
		DynamicPolicy{Metric: SumInterferenceFactors{Model: model}, Model: model},
		FairSharePolicy{Quantum: 2},
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
	got := ar.apps
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
	for _, a := range ar.apps {
		a.Inform(now)
		now++
	}
	ar.Arbitrate(now)
	if len(ar.granted) != 4 {
		t.Fatalf("granted %d apps, want 4", len(ar.granted))
	}
	for i, a := range ar.granted {
		if want := ar.apps[i].Name(); a.Name() != want {
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
	a.Prepare(ParseInfo(info))
	if a.Cores() != 64 {
		t.Fatalf("cores after Prepare = %d, want 64", a.Cores())
	}
	ar.Reset()
	if a.Cores() != 8 {
		t.Fatalf("cores after Reset = %d, want the registration value 8", a.Cores())
	}
	if a.State() != Idle || a.Authorized() || len(ar.AppendAllowed(nil)) != 0 {
		t.Fatal("Reset left protocol state behind")
	}
}

// TestArbiterStaysAllocFree holds the arbitration hot path to zero
// allocations per grant cycle under every shipped policy, reading each
// decision's allowed names into one reused slice as a daemon shard does.
// Fcfs alone used to be guarded; delay allocated its formatted Name() into
// every record, dynamic a dozen slices, a map and a sentence per decision.
func TestArbiterStaysAllocFree(t *testing.T) {
	for _, p := range shippedPolicies() {
		ar := NewArbiter(p)
		info := Info{}
		info.SetFloat(KeyBytesTotal, 1e8)
		apps := make([]*AppState, 8)
		for i := range apps {
			var err error
			if apps[i], err = ar.Register(fmt.Sprintf("app-%d", i), 16); err != nil {
				t.Fatal(err)
			}
		}
		var allowed []string
		decide := func(now float64) {
			if _, _, acted := ar.Arbitrate(now); acted {
				allowed = ar.AppendAllowed(allowed[:0])
			}
		}
		// One run: every application prepares and informs, then each in
		// turn takes a step and ends its phase, a decision after every
		// verb as the shard and the Layer both take them.
		run := func() {
			now := 0.0
			for _, a := range apps {
				now++
				a.Prepare(ParseInfo(info))
				a.Inform(now)
				decide(now)
			}
			for _, a := range apps {
				now++
				if a.Authorized() && a.Activate().Err() == nil {
					a.Progress(5e7)
					a.Release() // just activated
				}
				decide(now)
				a.End()
				a.Complete() // prepared above
				decide(now)
			}
		}
		run() // size the scratch and the names slice
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", p.Name(), allocs)
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
			reasons = append(reasons, fmt.Sprint(arbitrate(ar, now).Reason, ar.AppendAllowed(nil)))
		}
		for round := 0; round < 50; round++ {
			for i, a := range apps {
				info.SetFloat(KeyBytesTotal, 1e8*float64(1+(i+round)%5))
				a.Prepare(ParseInfo(info))
				a.Inform(now)
				decide()
			}
			for _, a := range apps {
				if a.Authorized() && a.Activate().Err() == nil {
					decide()
					a.Progress(3e7)
					a.Release() // just activated
				}
				decide()
				a.End()
				a.Complete() // prepared above
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
