package core

import "testing"

// TestLedgerAccounting walks two applications through every Ledger event
// with exact times: an immediate wait, a convoy wait served behind the
// holder, a protocol wait censored at the end of the record, a cancelled
// wait, and the totals.
func TestLedgerAccounting(t *testing.T) {
	ar := NewArbiter(FCFSPolicy{})
	a, _ := ar.Register("a", 1)
	b, _ := ar.Register("b", 1)
	var la, lb Ledger

	if !la.Inform(a, 0) || la.Inform(a, 0.5) || !lb.Inform(b, 1) {
		t.Fatal("Inform must report exactly the fresh phases")
	}
	ar.Arbitrate(1) // fcfs: a holds
	if !la.Wait(a, 1) || la.Parked() {
		t.Fatal("an authorized Wait must be served at once")
	}
	if lb.Wait(b, 2) || !lb.Parked() {
		t.Fatal("an unauthorized Wait must park")
	}
	if got := la.IOTimeAt(a, 3); got != 3 {
		t.Fatalf("IOTimeAt(3) = %g, want 3", got)
	}
	if la.Close(a, 4) {
		t.Fatal("Close cancelled a Wait that was not parked")
	}
	a.End()
	ar.Arbitrate(4) // b holds
	if d, convoy := lb.Serve(4); d != 2 || !convoy || lb.Parked() {
		t.Fatalf("Serve = %g, convoy=%v, parked=%v; want 2, true, false", d, convoy, lb.Parked())
	}
	lb.Close(b, 5)
	b.End()

	// Nobody holds: a Wait parked now is a protocol wait.
	lb.Inform(b, 6)
	lb.Wait(b, 6)
	if d, ok := lb.Censor(8.5); d != 2.5 || !ok {
		t.Fatalf("Censor = %g, %v; want 2.5, true", d, ok)
	}
	if _, ok := lb.Censor(9); ok {
		t.Fatal("Censor charged a Wait twice")
	}
	lb.Wait(b, 9)
	if !lb.Close(b, 10) || lb.Parked() {
		t.Fatal("Close must cancel the parked Wait")
	}

	want := Ledger{Phases: 2, Grants: 1, WaitsDeferred: 1, WaitS: 4.5, ConvoyWaitS: 2, ProtocolWaitS: 2.5, IOTimeS: 8}
	if got := lb; got.Phases != want.Phases || got.Grants != want.Grants || got.WaitsImmediate != 0 ||
		got.WaitsDeferred != want.WaitsDeferred || got.WaitS != want.WaitS || got.ConvoyWaitS != want.ConvoyWaitS ||
		got.ProtocolWaitS != want.ProtocolWaitS || got.IOTimeS != want.IOTimeS {
		t.Fatalf("b's ledger = %+v, want %+v", got, want)
	}
	var tot Ledger
	tot.Add(&la)
	tot.Add(&lb)
	if tot.Phases != 3 || tot.Grants != 2 || tot.WaitsImmediate != 1 || tot.WaitsDeferred != 1 ||
		tot.WaitS != 4.5 || tot.IOTimeS != 12 || tot.Parked() {
		t.Fatalf("totals = %+v", tot)
	}
}
