package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/approx"
	"repro/internal/sim"
)

func TestInfoHelpers(t *testing.T) {
	in := Info{}
	in.SetInt(KeyFiles, 4)
	in.SetFloat(KeyBytesTotal, 1.5e9)
	if in.Int(KeyFiles, 0) != 4 {
		t.Fatal("int roundtrip failed")
	}
	if in.Float(KeyBytesTotal, 0) != 1.5e9 {
		t.Fatal("float roundtrip failed")
	}
	if in.Int("missing", 7) != 7 || in.Float("missing", 2.5) != 2.5 {
		t.Fatal("defaults not honored")
	}
	in["junk"] = "not-a-number"
	if in.Int("junk", 9) != 9 || in.Float("junk", 8) != 8 {
		t.Fatal("malformed values should yield defaults")
	}
	if in.String() == "" {
		t.Fatal("String empty")
	}
}

func TestPropertyInfoRoundTrip(t *testing.T) {
	f := func(v int64, x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		in := Info{}
		in.SetInt("i", v)
		in.SetFloat("f", x)
		return in.Int("i", -1) == v && in.Float("f", -1) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fakeIO simulates an application's I/O phase with nrounds rounds of
// roundTime seconds each, using the coordination session.
func fakeIO(eng *sim.Engine, sess *Session, start float64, nrounds int, roundTime float64, info Info, done *float64) {
	eng.GoAt(start, sess.C.Name(), func(p *sim.Proc) {
		sess.Begin(p, info)
		for r := 0; r < nrounds; r++ {
			p.Sleep(roundTime) // the "atomic access"
			sess.C.Progress(float64(r+1) / float64(nrounds))
			if r < nrounds-1 {
				sess.Yield(p)
			}
		}
		sess.End(p)
		*done = p.Now()
	})
}

func basicInfo(bytes float64, cores int) Info {
	in := Info{}
	in.SetFloat(KeyBytesTotal, bytes)
	in.SetInt(KeyCores, int64(cores))
	in.SetFloat(KeyAloneBW, bytes) // solo time 1s per byte-unit scaling
	return in
}

func TestFCFSSerializesSecondArrival(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, FCFSPolicy{}, 1e-4)
	a := NewSession(layer.Register("A", 100))
	b := NewSession(layer.Register("B", 100))
	var doneA, doneB float64
	// A: 10 rounds x 1s starting at 0. B: same, starting at 3.
	fakeIO(eng, a, 0, 10, 1, basicInfo(10, 100), &doneA)
	fakeIO(eng, b, 3, 10, 1, basicInfo(10, 100), &doneB)
	eng.Run()
	if !approx.Equal(doneA, 10, 1e-2) {
		t.Fatalf("A done at %v, want ~10 (undisturbed)", doneA)
	}
	// B waits for A (t=10) then runs 10s.
	if !approx.Equal(doneB, 20, 1e-2) {
		t.Fatalf("B done at %v, want ~20 (serialized)", doneB)
	}
}

func TestFCFSFirstArrivalKeepsAccessAcrossYields(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, FCFSPolicy{}, 1e-4)
	a := NewSession(layer.Register("A", 10))
	b := NewSession(layer.Register("B", 10))
	var doneA, doneB float64
	fakeIO(eng, a, 0, 5, 1, basicInfo(5, 10), &doneA)
	fakeIO(eng, b, 0.5, 5, 1, basicInfo(5, 10), &doneB)
	eng.Run()
	if !approx.Equal(doneA, 5, 1e-2) {
		t.Fatalf("A done at %v, want ~5", doneA)
	}
	if !approx.Equal(doneB, 10, 1e-2) {
		t.Fatalf("B done at %v, want ~10", doneB)
	}
}

func TestInterruptPausesFirstApp(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, InterruptPolicy{}, 1e-4)
	a := NewSession(layer.Register("A", 100))
	b := NewSession(layer.Register("B", 100))
	var doneA, doneB float64
	fakeIO(eng, a, 0, 10, 1, basicInfo(10, 100), &doneA)
	fakeIO(eng, b, 3, 4, 1, basicInfo(4, 100), &doneB)
	eng.Run()
	// B is authorized immediately on arrival (t=3) and runs 4s -> ~7;
	// A overlaps for one round until its yield point at t=4.
	if !approx.Equal(doneB, 7, 0.1) {
		t.Fatalf("B done at %v, want ~7 (prompt access)", doneB)
	}
	// A: 4 rounds by t=4, paused until ~7, 6 rounds left -> ~13.
	if !approx.Equal(doneA, 13, 0.1) {
		t.Fatalf("A done at %v, want ~13 (interrupted)", doneA)
	}
}

func TestInterferePolicyLetsBothRun(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, InterferePolicy{}, 1e-4)
	a := NewSession(layer.Register("A", 10))
	b := NewSession(layer.Register("B", 10))
	var doneA, doneB float64
	fakeIO(eng, a, 0, 5, 1, basicInfo(5, 10), &doneA)
	fakeIO(eng, b, 1, 5, 1, basicInfo(5, 10), &doneB)
	eng.Run()
	// No blocking: both finish after their own 5s.
	if !approx.Equal(doneA, 5, 1e-2) || !approx.Equal(doneB, 6, 1e-2) {
		t.Fatalf("done = %v %v, want 5, 6", doneA, doneB)
	}
}

func TestWaitBeforeInformPanics(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, FCFSPolicy{}, 0)
	c := layer.Register("A", 1)
	recovered := false
	eng.Go("p", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				recovered = true
			}
		}()
		c.Wait(p)
	})
	eng.Run()
	if !recovered {
		t.Fatal("expected panic from Wait before Inform")
	}
}

func TestCompleteWithoutPreparePanics(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, FCFSPolicy{}, 0)
	c := layer.Register("A", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Complete()
}

func TestDuplicateRegisterPanics(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, FCFSPolicy{}, 0)
	layer.Register("A", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	layer.Register("A", 2)
}

func TestPrepareCompleteStack(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, FCFSPolicy{}, 0)
	c := layer.Register("A", 8)
	base := Info{}
	base.SetFloat(KeyBytesTotal, 100)
	base.SetInt(KeyFiles, 2)
	c.Prepare(base)
	over := Info{}
	over.SetFloat(KeyBytesTotal, 50)
	c.Prepare(over)
	v := c.app.View()
	if v.BytesTotal != 50 || v.Files != 2 {
		t.Fatalf("stacked view = %+v", v)
	}
	c.Complete()
	v = c.app.View()
	if v.BytesTotal != 100 {
		t.Fatalf("after Complete view = %+v", v)
	}
}

func TestDecisionLog(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, FCFSPolicy{}, 1e-4)
	a := NewSession(layer.Register("A", 1))
	var done float64
	fakeIO(eng, a, 0, 2, 1, basicInfo(2, 1), &done)
	eng.Run()
	if len(layer.Log()) == 0 {
		t.Fatal("no decisions logged")
	}
	for _, d := range layer.Log() {
		if d.Policy != "fcfs" {
			t.Fatalf("unexpected policy in log: %+v", d)
		}
	}
}

func TestPerfModelAloneBW(t *testing.T) {
	m := &PerfModel{FSBandwidth: 1000, ProcNIC: 10}
	// Injection-limited app.
	if got := m.AloneBW(AppView{Cores: 10}); got != 100 {
		t.Fatalf("AloneBW = %v, want 100", got)
	}
	// FS-limited app.
	if got := m.AloneBW(AppView{Cores: 1000}); got != 1000 {
		t.Fatalf("AloneBW = %v, want 1000", got)
	}
	// Declared value wins.
	if got := m.AloneBW(AppView{Cores: 10, AloneBW: 42}); got != 42 {
		t.Fatalf("AloneBW = %v, want 42", got)
	}
}

func TestDynamicDecisionThreshold(t *testing.T) {
	// Paper §IV-D: with equal core counts, interrupt A iff
	// remaining(A) > solo(B), i.e. dt < T_A(alone) - T_B(alone).
	m := &PerfModel{FSBandwidth: 1000, ProcNIC: 1000}
	pol := DynamicPolicy{Metric: CPUSecondsWasted{}, Model: m}

	mk := func(remA, totalB float64) []AppView {
		return []AppView{
			{Name: "A", Cores: 2048, Arrival: 0, BytesTotal: 4000, BytesDone: 4000 - remA, AloneBW: 1000, State: Active},
			{Name: "B", Cores: 2048, Arrival: 5, BytesTotal: totalB, AloneBW: 1000, State: Waiting},
		}
	}
	// A has plenty remaining (3000 = 3s) vs B small (1000 = 1s): interrupt.
	dec := pol.Arbitrate(5, mk(3000, 1000))
	if !dec.Allowed["B"] || dec.Allowed["A"] {
		t.Fatalf("want interrupt (B only), got %+v", dec)
	}
	// A nearly done (500 = 0.5s) vs B 1s: FCFS (B waits).
	dec = pol.Arbitrate(5, mk(500, 1000))
	if !dec.Allowed["A"] || dec.Allowed["B"] {
		t.Fatalf("want FCFS (A only), got %+v", dec)
	}
}

func TestDynamicPolicyEndToEnd(t *testing.T) {
	// A writes 4 "files" x 2s; B arrives early with 1 file x 2s; with the
	// CPU-seconds metric and equal cores, B should interrupt A.
	eng := sim.NewEngine()
	m := &PerfModel{FSBandwidth: 1, ProcNIC: 1}
	layer := NewLayer(eng, DynamicPolicy{Metric: CPUSecondsWasted{}, Model: m}, 1e-4)
	a := NewSession(layer.Register("A", 2048))
	b := NewSession(layer.Register("B", 2048))

	infoA := Info{}
	infoA.SetFloat(KeyBytesTotal, 8)
	infoA.SetFloat(KeyAloneBW, 1)
	infoB := Info{}
	infoB.SetFloat(KeyBytesTotal, 2)
	infoB.SetFloat(KeyAloneBW, 1)

	var doneA, doneB float64
	eng.Go("A", func(p *sim.Proc) {
		a.Begin(p, infoA)
		for r := 0; r < 4; r++ {
			p.Sleep(2)
			a.C.Progress(float64(2 * (r + 1)))
			if r < 3 {
				a.Yield(p)
			}
		}
		a.End(p)
		doneA = p.Now()
	})
	eng.GoAt(1, "B", func(p *sim.Proc) {
		b.Begin(p, infoB)
		p.Sleep(2)
		b.C.Progress(2)
		b.End(p)
		doneB = p.Now()
	})
	eng.Run()
	// B arrives at t=1 with solo 2s; A remaining 7s > 2s -> interrupt: B is
	// authorized at once and finishes at ~3 (one round overlaps with A).
	if !approx.Equal(doneB, 3, 0.1) {
		t.Fatalf("B done at %v, want ~3 (interrupted A)", doneB)
	}
	// A: round 1 ends t=2, paused until ~3, rounds 2-4 -> done ~9.
	if !approx.Equal(doneA, 9, 0.1) {
		t.Fatalf("A done at %v, want ~9", doneA)
	}
}

func TestDelayPolicyWindow(t *testing.T) {
	m := &PerfModel{FSBandwidth: 100, ProcNIC: 100}
	pol := DelayPolicy{Overlap: 1.0, Model: m}
	apps := []AppView{
		{Name: "A", Cores: 1, Arrival: 0, BytesTotal: 1000, BytesDone: 0, AloneBW: 100, State: Active},
		{Name: "B", Cores: 1, Arrival: 1, BytesTotal: 200, AloneBW: 100, State: Waiting},
	}
	// A rem = 10s; B solo = 2s; window 2 < 10 -> B delayed, recheck in 8s.
	dec := pol.Arbitrate(1, apps)
	if dec.Allowed["B"] {
		t.Fatalf("B should be delayed: %+v", dec)
	}
	if !approx.Equal(dec.RecheckAfter, 8, 1e-6) {
		t.Fatalf("recheck = %v, want 8", dec.RecheckAfter)
	}
	// A nearly done: overlap allowed.
	apps[0].BytesDone = 900
	dec = pol.Arbitrate(1, apps)
	if !dec.Allowed["B"] || !dec.Allowed["A"] {
		t.Fatalf("both should run: %+v", dec)
	}
}

func TestMetrics(t *testing.T) {
	apps := []AppView{{Cores: 10}, {Cores: 20}}
	times := []float64{2, 3}
	if got := (CPUSecondsWasted{}).Cost(apps, times); got != 10*2+20*3 {
		t.Fatalf("cpu-seconds = %v", got)
	}
	if got := (SumIOTime{}).Cost(apps, times); got != 5 {
		t.Fatalf("sum = %v", got)
	}
	if got := (Makespan{}).Cost(apps, times); got != 3 {
		t.Fatalf("makespan = %v", got)
	}
	m := &PerfModel{FSBandwidth: 1, ProcNIC: 1}
	si := SumInterferenceFactors{Model: m}
	apps = []AppView{
		{Cores: 1, BytesTotal: 2, AloneBW: 1}, // solo 2s
		{Cores: 1, BytesTotal: 3, AloneBW: 1}, // solo 3s
	}
	if got := si.Cost(apps, []float64{4, 3}); !approx.Equal(got, 4.0/2+3.0/3, 1e-9) {
		t.Fatalf("sumI = %v", got)
	}
}

func TestStateString(t *testing.T) {
	if Idle.String() != "idle" || Waiting.String() != "waiting" || Active.String() != "active" {
		t.Fatal("state names")
	}
}

func TestSharedFinishTimes(t *testing.T) {
	m := &PerfModel{FSBandwidth: 100, ProcNIC: 1}
	apps := []AppView{
		{Name: "A", Cores: 100, BytesTotal: 100},
		{Name: "B", Cores: 100, BytesTotal: 100},
	}
	fin := m.sharedFinishTimes(new(Scratch), apps)
	// Equal weights, combined demand saturates: both at 50 B/s -> 2s.
	if !approx.Equal(fin[0], 2, 1e-6) || !approx.Equal(fin[1], 2, 1e-6) {
		t.Fatalf("fin = %v, want [2 2]", fin)
	}
}

func TestThreeAppFCFSQueue(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, FCFSPolicy{}, 1e-4)
	var doneA, doneB, doneC float64
	a := NewSession(layer.Register("A", 10))
	b := NewSession(layer.Register("B", 10))
	c := NewSession(layer.Register("C", 10))
	fakeIO(eng, a, 0, 4, 1, basicInfo(4, 10), &doneA)
	fakeIO(eng, b, 1, 4, 1, basicInfo(4, 10), &doneB)
	fakeIO(eng, c, 2, 4, 1, basicInfo(4, 10), &doneC)
	eng.Run()
	// Strict arrival order: A 0-4, B 4-8, C 8-12.
	if !approx.Equal(doneA, 4, 0.05) || !approx.Equal(doneB, 8, 0.05) || !approx.Equal(doneC, 12, 0.05) {
		t.Fatalf("done = %v %v %v, want 4 8 12", doneA, doneB, doneC)
	}
}

func TestThreeAppInterruptStack(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, InterruptPolicy{}, 1e-4)
	var doneA, doneB, doneC float64
	a := NewSession(layer.Register("A", 10))
	b := NewSession(layer.Register("B", 10))
	c := NewSession(layer.Register("C", 10))
	fakeIO(eng, a, 0, 10, 1, basicInfo(10, 10), &doneA)
	fakeIO(eng, b, 2, 4, 1, basicInfo(4, 10), &doneB)
	fakeIO(eng, c, 3, 2, 1, basicInfo(2, 10), &doneC)
	eng.Run()
	// C (newest) preempts B which preempted A: LIFO resume order.
	if !(doneC < doneB && doneB < doneA) {
		t.Fatalf("completion order wrong: A=%v B=%v C=%v", doneA, doneB, doneC)
	}
	// C runs essentially solo from its arrival (one round of overlap).
	if !approx.Equal(doneC, 5, 0.1) {
		t.Fatalf("C done at %v, want ~5", doneC)
	}
}

func TestThreeAppDynamicSJFQueue(t *testing.T) {
	// A (huge) is active; B (medium) and C (tiny) wait. With the
	// cpu-seconds metric and equal cores, the dynamic policy should run the
	// tiny job before the medium one (shortest-job-first queueing), the
	// paper's "choose a place in the queue" generalization.
	m := &PerfModel{FSBandwidth: 100, ProcNIC: 100}
	pol := DynamicPolicy{Metric: CPUSecondsWasted{}, Model: m}
	apps := []AppView{
		{Name: "A", Cores: 64, Arrival: 0, BytesTotal: 10000, BytesDone: 9900, AloneBW: 100, State: Active},
		{Name: "B", Cores: 64, Arrival: 1, BytesTotal: 5000, AloneBW: 100, State: Waiting},
		{Name: "C", Cores: 64, Arrival: 2, BytesTotal: 100, AloneBW: 100, State: Waiting},
	}
	dec := pol.Arbitrate(2, apps)
	// A is nearly done (1s left): not worth interrupting for C (1s solo).
	// After A, C should go before B — but right now only A is authorized.
	if !dec.Allowed["A"] || dec.Allowed["B"] || dec.Allowed["C"] {
		t.Fatalf("expected A to continue: %+v", dec)
	}
	// Once A leaves, SJF should pick C over the earlier-arrived B.
	apps2 := []AppView{apps[1], apps[2]}
	dec = pol.Arbitrate(3, apps2)
	if !dec.Allowed["C"] || dec.Allowed["B"] {
		t.Fatalf("expected SJF to pick C: %+v", dec)
	}
}

func TestSystemBusy(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, InterferePolicy{}, 1e-4)
	a := NewSession(layer.Register("A", 1))
	b := layer.Register("B", 1)
	var busyDuring, busyAfter bool
	var doneA float64
	fakeIO(eng, a, 0, 3, 1, basicInfo(3, 1), &doneA)
	eng.GoAt(1, "probe", func(p *sim.Proc) {
		busyDuring = b.SystemBusy()
		p.SleepUntil(10)
		busyAfter = b.SystemBusy()
	})
	eng.Run()
	if !busyDuring {
		t.Fatal("B should see the system busy while A writes")
	}
	if busyAfter {
		t.Fatal("B should see the system idle after A ends")
	}
}

func TestWaitTimeAccounting(t *testing.T) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, FCFSPolicy{}, 1e-4)
	a := NewSession(layer.Register("A", 1))
	b := NewSession(layer.Register("B", 1))
	var doneA, doneB float64
	fakeIO(eng, a, 0, 5, 1, basicInfo(5, 1), &doneA)
	fakeIO(eng, b, 1, 5, 1, basicInfo(5, 1), &doneB)
	eng.Run()
	// B waited ~4s for A.
	if w := b.C.WaitTime(); !approx.Equal(w, 4, 0.05) {
		t.Fatalf("B wait time %v, want ~4", w)
	}
	if w := a.C.WaitTime(); w > 0.05 {
		t.Fatalf("A wait time %v, want ~0", w)
	}
	// IOTime covers the whole phase including the wait.
	if io := b.C.IOTime(); !approx.Equal(io, 9, 0.1) {
		t.Fatalf("B io time %v, want ~9", io)
	}
}

func TestPriorityPolicy(t *testing.T) {
	pol := PriorityPolicy{Priorities: map[string]int{"A": 1, "B": 5}}
	apps := []AppView{
		{Name: "A", Arrival: 0, State: Active},
		{Name: "B", Arrival: 3, State: Waiting},
	}
	dec := pol.Arbitrate(3, apps)
	if !dec.Allowed["B"] || dec.Allowed["A"] {
		t.Fatalf("high-priority B should win: %+v", dec)
	}
	// Without priorities, arrival order wins (first in sorted views).
	pol = PriorityPolicy{}
	dec = pol.Arbitrate(3, apps)
	if !dec.Allowed["A"] {
		t.Fatalf("equal priorities should fall back to arrival: %+v", dec)
	}
}

func TestFairSharePolicy(t *testing.T) {
	pol := FairSharePolicy{Quantum: 2}
	apps := []AppView{
		{Name: "A", BytesTotal: 100, BytesDone: 80, State: Active},
		{Name: "B", BytesTotal: 100, BytesDone: 10, State: Waiting},
	}
	dec := pol.Arbitrate(0, apps)
	if !dec.Allowed["B"] {
		t.Fatalf("least-served B should win: %+v", dec)
	}
	if dec.RecheckAfter != 2 {
		t.Fatalf("recheck = %v, want quantum 2", dec.RecheckAfter)
	}
	// Single app: no recheck needed.
	dec = pol.Arbitrate(0, apps[:1])
	if dec.RecheckAfter != 0 {
		t.Fatalf("single app should not schedule rechecks: %+v", dec)
	}
}

func TestFairShareEndToEndAlternates(t *testing.T) {
	// Quantum longer than the round time, so revocations actually bite at
	// the next coordination point (with a shorter quantum the lag between
	// revocation and the app's next yield lets both run most of the time).
	eng := sim.NewEngine()
	layer := NewLayer(eng, FairSharePolicy{Quantum: 1.5}, 1e-4)
	a := NewSession(layer.Register("A", 1))
	b := NewSession(layer.Register("B", 1))
	var doneA, doneB float64
	fakeIO(eng, a, 0, 6, 1, basicInfo(6, 1), &doneA)
	fakeIO(eng, b, 0.1, 6, 1, basicInfo(6, 1), &doneB)
	eng.Run()
	// Time-sliced: completions equalized, both slowed beyond their 6s of
	// work by the alternating waits.
	if math.Abs(doneA-doneB) > 2.5 {
		t.Fatalf("fair sharing should equalize completions: %v vs %v", doneA, doneB)
	}
	if doneA < 7.5 || doneB < 7.5 {
		t.Fatalf("both should be slowed: %v %v", doneA, doneB)
	}
}

// TestPrepareIgnoresNonFiniteFloats: Prepare info is whatever a client sent,
// and strconv.ParseFloat reads "Inf" and "NaN" as numbers. A declared size or
// bandwidth that is not a finite number is no declaration at all.
func TestPrepareIgnoresNonFiniteFloats(t *testing.T) {
	for _, tc := range []struct {
		value string
		want  float64 // the view's value afterwards; 7 is what was declared before
	}{
		{"Inf", 7}, {"+Inf", 7}, {"-Inf", 7}, {"inf", 7}, {"Infinity", 7}, {"NaN", 7}, {"nan", 7},
		{"1e999", 7}, {"-3", 7}, {"garbage", 7}, {"", 7},
		{"0", 0}, {"12.5", 12.5}, {"1e300", 1e300},
	} {
		for _, key := range []string{KeyBytesTotal, KeyAloneBW} {
			ar := NewArbiter(FCFSPolicy{})
			a, err := ar.Register("a", 1)
			if err != nil {
				t.Fatal(err)
			}
			a.Prepare(Info{key: "7"})
			a.Prepare(Info{key: tc.value})
			got := a.View().BytesTotal
			if key == KeyAloneBW {
				got = a.View().AloneBW
			}
			if got != tc.want {
				t.Errorf("%s=%q on top of 7: view has %v, want %v", key, tc.value, got, tc.want)
			}
		}
	}
}

// TestDynamicWithoutFiniteCost: when every candidate schedule costs +Inf (or
// NaN) none is cheaper than another, and the decision used to index its
// candidates with -1. Serialize, the first candidate, stands.
func TestDynamicWithoutFiniteCost(t *testing.T) {
	inf := math.Inf(1)
	model := &PerfModel{FSBandwidth: 1000, ProcNIC: 1}
	for _, tc := range []struct {
		name   string
		model  *PerfModel
		totals [3]float64
		states [3]State
		allow  string
	}{
		{"every size infinite", model, [3]float64{inf, inf, inf}, [3]State{Waiting, Waiting, Waiting}, "A"},
		{"the holder continues", model, [3]float64{inf, inf, inf}, [3]State{Waiting, Active, Waiting}, "B"},
		{"one size infinite", model, [3]float64{100, inf, 100}, [3]State{Active, Waiting, Waiting}, "A"},
		{"no bandwidth", &PerfModel{}, [3]float64{100, 100, 100}, [3]State{Waiting, Waiting, Waiting}, "A"},
	} {
		for _, interfere := range []bool{false, true} {
			pol := DynamicPolicy{Metric: CPUSecondsWasted{}, Model: tc.model, AllowInterfere: interfere}
			apps := make([]AppView, 3)
			for i := range apps {
				apps[i] = AppView{Name: string(rune('A' + i)), Cores: 8, Arrival: float64(i),
					BytesTotal: tc.totals[i], State: tc.states[i]}
			}
			dec := pol.Arbitrate(3, apps)
			if len(dec.Allowed) != 1 || !dec.Allowed[tc.allow] {
				t.Errorf("%s, interfere=%v: allowed %v, want only %s", tc.name, interfere, dec.Allowed, tc.allow)
			}
			if want := "dynamic: serialize after " + tc.allow + " (cost +Inf by cpu-seconds)"; dec.Reason.String() != want {
				t.Errorf("%s, interfere=%v: reason %q, want %q", tc.name, interfere, dec.Reason, want)
			}
		}
	}
}
