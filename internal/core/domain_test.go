package core

import (
	"fmt"
	"math"
	"testing"
)

// TestLedgerAccounting walks two applications of a Domain through every ledger
// event with exact times: an immediate wait, a convoy wait served behind the
// holder, a protocol wait censored at the end of the record, a cancelled
// wait, and the totals.
func TestLedgerAccounting(t *testing.T) {
	d := NewDomain(NewArbiter(FCFSPolicy{}))
	var a, b AppState
	if d.Join(&a, "a", 1) != nil || d.Join(&b, "b", 1) != nil {
		t.Fatal("Join failed")
	}

	d.Inform(0, &a, 0)
	d.Inform(0.5, &a, 0) // mid-phase: opens nothing
	d.Inform(1, &b, 0)
	if a.led.Phases != 1 || b.led.Phases != 1 {
		t.Fatal("Inform must count exactly the fresh phases")
	}
	d.Arbitrate(1) // fcfs: a holds
	if !d.Wait(1, &a, false).Served || a.Parked() {
		t.Fatal("an authorized Wait must be served at once")
	}
	if e := d.Wait(2, &b, false); e.Served || e.Violation.Err() != nil || !b.Parked() {
		t.Fatal("an unauthorized Wait must park")
	}
	if got := a.IOTimeAt(3); got != 3 {
		t.Fatalf("IOTimeAt(3) = %g, want 3", got)
	}
	if d.End(4, &a).Cancelled {
		t.Fatal("End cancelled a Wait that was not parked")
	}
	if dec := d.Arbitrate(4); len(dec.Granted) != 1 || dec.Granted[0] != &b || !b.Parked() {
		t.Fatalf("the decision at 4 must grant b's parked Wait: %+v", dec)
	}
	if w, convoy := d.Serve(4, &b); w != 2 || !convoy || b.Parked() || b.State() != Active {
		t.Fatalf("Serve = %g, convoy=%v, parked=%v; want 2, true, false", w, convoy, b.Parked())
	}
	d.Release(&b, 0)
	d.End(5, &b)

	// Nobody holds: a Wait parked now is a protocol wait.
	d.Inform(6, &b, 0)
	d.Wait(6, &b, false)
	if w, ok := b.Censor(8.5); w != 2.5 || !ok {
		t.Fatalf("Censor = %g, %v; want 2.5, true", w, ok)
	}
	if _, ok := b.Censor(9); ok {
		t.Fatal("Censor charged a Wait twice")
	}
	d.Wait(9, &b, false)
	if !d.End(10, &b).Cancelled || b.Parked() {
		t.Fatal("End must cancel the parked Wait")
	}

	want := Ledger{Phases: 2, Grants: 1, WaitsDeferred: 1, WaitS: 4.5, ConvoyWaitS: 2, ProtocolWaitS: 2.5, IOTimeS: 8}
	if got := b.Ledger(); got != want {
		t.Fatalf("b's ledger = %+v, want %+v", got, want)
	}
	var tot Ledger
	tot.Add(a.Ledger())
	tot.Add(b.Ledger())
	if tot.Phases != 3 || tot.Grants != 2 || tot.WaitsImmediate != 1 || tot.WaitsDeferred != 1 ||
		tot.WaitS != 4.5 || tot.IOTimeS != 12 {
		t.Fatalf("totals = %+v", tot)
	}
}

// TestDomainStaysAllocFree is TestArbiterStaysAllocFree one layer up: a
// steady-state schedule of every verb through a Domain — Waits that park
// and are served, protocol violations, the rechecks a policy asks for, and
// an application that leaves mid-phase and joins again — allocates
// nothing, under every shipped policy.
func TestDomainStaysAllocFree(t *testing.T) {
	served, rechecks := 0, 0
	for _, p := range shippedPolicies() {
		d := NewDomain(NewArbiter(p))
		apps := make([]AppState, 8)
		for i := range apps {
			if err := d.Join(&apps[i], fmt.Sprintf("app-%d", i), 16); err != nil {
				t.Fatal(err)
			}
		}
		info := Info{}
		info.SetFloat(KeyBytesTotal, 1e8)
		parsed := ParseInfo(info)
		now := 0.0
		settle := func(e Effect) {
			if !e.Arbitrate {
				return
			}
			for _, a := range d.Arbitrate(now).Granted {
				if a.Parked() {
					d.Serve(now, a)
					served++
				}
			}
		}
		run := func() {
			for i := range apps {
				a := &apps[i]
				now++
				a.Prepare(parsed)
				settle(d.Inform(now, a, 0))
				d.Wait(now, a, false)
				d.Wait(now, a, false) // pending, or Wait while Active: no error formatted
			}
			if rt := d.RecheckAt(); !math.IsInf(rt, 1) {
				now = math.Max(now, rt)
				settle(Effect{Arbitrate: true})
				rechecks++
			}
			for i := range apps {
				a := &apps[i]
				now++
				settle(d.Release(a, 5e7)) // a violation unless Active
				settle(d.Inform(now, a, 0))
				d.Wait(now, a, false)
				settle(d.End(now, a))
				a.Complete()
				a.Complete() // Complete without Prepare
			}
			a := &apps[0]
			settle(d.Inform(now, a, 0))
			d.Wait(now, a, false)
			settle(d.Leave(now, a))
			if err := d.Join(a, "app-0", 16); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 300; i++ {
			run() // size every scratch slice
		}
		if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
			t.Errorf("%s: %.1f allocations per run, want 0", p.Name(), allocs)
		}
	}
	if served == 0 || rechecks == 0 {
		t.Fatalf("the schedule served %d parked Waits and ran %d rechecks", served, rechecks)
	}
}
