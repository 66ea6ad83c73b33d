package replay

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/replay/replaytest"
	"repro/internal/trace"
)

// twoAppTrace is a hand-written daemon-style trace: A occupies the file
// system from t=1 to t=6 (two access steps), B arrives at t=2 and ends at
// t=8. Under fcfs the recording granted A at t=1 (inform arbitration) and B
// at t=6 (when A ended); those outcome events are included so Verify has
// something to check against.
func twoAppTrace() *trace.Trace {
	return &trace.Trace{
		Header: trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"},
		Events: []trace.Event{
			{Type: trace.EvRegister, Time: 0, SID: 1, App: "A", Cores: 4},
			{Type: trace.EvRegister, Time: 0.1, SID: 2, App: "B", Cores: 2},
			{Type: trace.EvPrepare, Time: 0.5, SID: 1, Info: map[string]string{core.KeyBytesTotal: "200"}},
			{Type: trace.EvPrepare, Time: 0.6, SID: 2, Info: map[string]string{core.KeyBytesTotal: "100"}},

			{Type: trace.EvInform, Time: 1, SID: 1},
			{Type: trace.EvGrant, Time: 1, SID: 1},
			{Type: trace.EvWait, Time: 1.1, SID: 1}, // immediate

			{Type: trace.EvInform, Time: 2, SID: 2},
			{Type: trace.EvWait, Time: 2.1, SID: 2}, // deferred behind A

			{Type: trace.EvRelease, Time: 5, SID: 1, Bytes: 100},
			{Type: trace.EvInform, Time: 5, SID: 1},
			{Type: trace.EvWait, Time: 5.1, SID: 1}, // immediate: A still head

			{Type: trace.EvRelease, Time: 6, SID: 1, Bytes: 200},
			{Type: trace.EvComplete, Time: 6, SID: 1},
			{Type: trace.EvEnd, Time: 6, SID: 1},
			{Type: trace.EvGrant, Time: 6, SID: 2}, // B takes over as A ends

			{Type: trace.EvRelease, Time: 8, SID: 2, Bytes: 100},
			{Type: trace.EvComplete, Time: 8, SID: 2},
			{Type: trace.EvEnd, Time: 8, SID: 2},
		},
	}
}

func TestUnderFCFS(t *testing.T) {
	tr := twoAppTrace()
	res, err := Under(tr, core.FCFSPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GrantsServed != 3 {
		t.Fatalf("grants = %d, want 3 (A twice immediate, B once deferred)", res.GrantsServed)
	}
	if res.WaitsImmediate != 2 || res.WaitsDeferred != 1 {
		t.Fatalf("immediate/deferred = %d/%d, want 2/1", res.WaitsImmediate, res.WaitsDeferred)
	}
	// B waited from 2.1 until A ended at 6, behind an authorized holder.
	if got := res.TotalWaitS; math.Abs(got-3.9) > 1e-9 {
		t.Fatalf("total wait = %g, want 3.9", got)
	}
	if math.Abs(res.ConvoyWaitS-3.9) > 1e-9 || res.ProtocolWaitS != 0 {
		t.Fatalf("convoy/protocol = %g/%g, want 3.9/0", res.ConvoyWaitS, res.ProtocolWaitS)
	}
	if res.OverlapS != 0 {
		t.Fatalf("overlap = %g, want 0 under strict serialization", res.OverlapS)
	}
	if res.Unserved != 0 || res.Aborted != 0 {
		t.Fatalf("unserved/aborted = %d/%d, want 0/0", res.Unserved, res.Aborted)
	}
	if res.MakespanS != 8 {
		t.Fatalf("makespan = %g, want 8", res.MakespanS)
	}
	// Per-app: sorted by name.
	if len(res.Apps) != 2 || res.Apps[0].Name != "A" || res.Apps[1].Name != "B" {
		t.Fatalf("apps = %+v", res.Apps)
	}
	a, b := res.Apps[0], res.Apps[1]
	if a.IOTimeS != 5 || math.Abs(b.IOTimeS-6) > 1e-9 {
		t.Fatalf("io times = %g/%g, want 5/6", a.IOTimeS, b.IOTimeS)
	}
	if b.WaitS != 3.9 || a.WaitS != 0 {
		t.Fatalf("waits = %g/%g, want 0/3.9", a.WaitS, b.WaitS)
	}
	if p99 := res.WaitPercentile(99); p99 != 3.9 {
		t.Fatalf("p99 wait = %g, want 3.9", p99)
	}
}

func TestUnderInterfereOverlaps(t *testing.T) {
	tr := twoAppTrace()
	res, err := Under(tr, core.InterferePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalWaitS != 0 || res.WaitsDeferred != 0 {
		t.Fatalf("interference should serve every wait immediately: %+v", res)
	}
	// B active 2.1..8, A active 1.1..5 and 5.1..6: overlap 2.1..5 and
	// 5.1..6 = 2.9 + 0.9 machine-seconds.
	if math.Abs(res.OverlapS-3.8) > 1e-9 {
		t.Fatalf("overlap = %g, want 3.8", res.OverlapS)
	}
}

func TestVerifyMatchesAndDetectsTampering(t *testing.T) {
	tr := twoAppTrace()
	v, err := Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Match {
		t.Fatalf("verify mismatch: %s", v.Mismatch)
	}
	if len(v.Recorded) != 2 || len(v.Flips) != 2 {
		t.Fatalf("flips: recorded %d, replayed %d, want 2/2", len(v.Recorded), len(v.Flips))
	}

	// Tamper: drop the second recorded grant; the replayed sequence is now
	// longer than the recorded one.
	tam := twoAppTrace()
	evs := tam.Events[:0]
	for _, ev := range tam.Events {
		if ev.Type == trace.EvGrant && ev.SID == 2 {
			continue
		}
		evs = append(evs, ev)
	}
	tam.Events = evs
	v2, err := Verify(tam)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Match {
		t.Fatal("tampered trace verified clean")
	}
	if v2.Mismatch == "" {
		t.Fatal("mismatch not described")
	}
}

func TestVerifyRefusesLossyAndClientTraces(t *testing.T) {
	lossy := twoAppTrace()
	lossy.Dropped = 3
	if _, err := Verify(lossy); err == nil || !strings.Contains(err.Error(), "lossy") {
		t.Fatalf("want lossy-trace refusal, got %v", err)
	}
	if _, err := Under(lossy, core.FCFSPolicy{}); err == nil || !strings.Contains(err.Error(), "lossy") {
		t.Fatalf("Under must refuse lossy traces too, got %v", err)
	}
	// Only a calciomd recording knows which session attached to which
	// target when: every mode refuses any other source.
	for _, source := range []string{"client", ""} {
		tr := twoAppTrace()
		tr.Header.Source = source
		for mode, replay := range map[string]func() error{
			"Verify":  func() error { _, err := Verify(tr); return err },
			"Under":   func() error { _, err := Under(tr, core.FCFSPolicy{}); return err },
			"Compare": func() error { _, err := Compare(tr, StandardPolicies(tr.Header, -1)); return err },
		} {
			if err := replay(); err == nil || !strings.Contains(err.Error(), "calciomd -record") {
				t.Errorf("%s of a %q trace: want a refusal naming calciomd -record, got %v", mode, source, err)
			}
		}
	}
	// Nor does a shard record a time that falls, or an event of a session
	// not attached to it.
	back := twoAppTrace()
	back.Events[7].Time = 0.5 // B's inform, before A's wait at 1.1
	stray := twoAppTrace()
	stray.Events = append(stray.Events, trace.Event{Type: trace.EvInform, Time: 9, SID: 3})
	for want, tr := range map[string]*trace.Trace{"precedes": back, "not registered": stray} {
		if _, err := Under(tr, core.FCFSPolicy{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("want an error saying %q, got %v", want, err)
		}
	}
}

// TestSynthesizedRecheck exercises the delay policy's RecheckAfter on the
// virtual clock: the grant must land at an instant that appears nowhere in
// the trace — it was synthesized between events.
func TestSynthesizedRecheck(t *testing.T) {
	const mib = 1 << 20
	tr := &trace.Trace{
		Header: trace.Header{Source: trace.SourceDaemon, Policy: "delay(0.5)", FSMiBps: 1},
		Events: []trace.Event{
			{Type: trace.EvRegister, Time: 0, SID: 1, App: "A", Cores: 1},
			{Type: trace.EvRegister, Time: 0, SID: 2, App: "B", Cores: 1},
			{Type: trace.EvPrepare, Time: 0, SID: 1, Info: map[string]string{core.KeyBytesTotal: "10485760"}}, // 10 MiB, solo 10s
			{Type: trace.EvPrepare, Time: 0, SID: 2, Info: map[string]string{core.KeyBytesTotal: "1048576"}},  // 1 MiB, solo 1s
			{Type: trace.EvInform, Time: 0, SID: 1},
			{Type: trace.EvWait, Time: 0, SID: 1}, // immediate: single app
			{Type: trace.EvInform, Time: 1, SID: 2},
			{Type: trace.EvWait, Time: 1, SID: 2}, // deferred: holder remains 10s, window 0.5s
			// A reports 9.4 MiB done at t=2: remaining 0.6s > 0.5s window,
			// so arbitration schedules a recheck at t=2.1 ...
			{Type: trace.EvRelease, Time: 2, SID: 1, Bytes: 9.4 * mib},
			{Type: trace.EvInform, Time: 2, SID: 1},
			{Type: trace.EvWait, Time: 2, SID: 1},
			// ... and a state-free progress report at t=2.05 shrinks the
			// remainder to 0.5s, so the recheck at 2.1 grants B.
			{Type: trace.EvProgress, Time: 2.05, SID: 1, Bytes: 9.5 * mib},
			{Type: trace.EvRelease, Time: 3, SID: 2, Bytes: 1 * mib},
			{Type: trace.EvEnd, Time: 3, SID: 2},
			{Type: trace.EvRelease, Time: 4, SID: 1, Bytes: 10 * mib},
			{Type: trace.EvEnd, Time: 4, SID: 1},
		},
	}
	pol, err := tr.Header.BuildPolicy()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Under(tr, pol)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range res.Flips {
		if f.SID == 2 && f.Grant && math.Abs(f.Time-2.1) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no synthesized-recheck grant for B at t=2.1; flips: %v", res.Flips)
	}
	if res.GrantsServed != 3 {
		t.Fatalf("grants = %d, want 3", res.GrantsServed)
	}
}

func TestCompareStretchPenalizesInterference(t *testing.T) {
	tr := twoAppTrace()
	c, err := Compare(tr, StandardPolicies(tr.Header, -1))
	if err != nil {
		t.Fatal(err)
	}
	if c.Recording != "fcfs" {
		t.Fatalf("recording = %q", c.Recording)
	}
	if len(c.Outcomes) != 3 { // no model in header: static policies only
		t.Fatalf("outcomes = %d, want 3", len(c.Outcomes))
	}
	byName := map[string]*Outcome{}
	for i := range c.Outcomes {
		byName[c.Outcomes[i].Policy] = &c.Outcomes[i]
	}
	fcfs, inter := byName["fcfs"], byName["interfere"]
	if fcfs == nil || inter == nil {
		t.Fatalf("missing outcomes: %v", byName)
	}
	// fcfs: no stretch, so its estimated time is service + wait; the
	// baseline attributes B's 3.9s to waiting, leaving service 5 + 2.1.
	if math.Abs(fcfs.EstIOTimeS-(5+2.1+3.9)) > 1e-9 {
		t.Fatalf("fcfs est = %g, want 11", fcfs.EstIOTimeS)
	}
	// interference: zero wait but stretched service; both must exceed the
	// contention-free service sum and the factors must exceed 1.
	if inter.TotalWaitS != 0 {
		t.Fatalf("interfere wait = %g", inter.TotalWaitS)
	}
	if inter.EstIOTimeS <= 5+2.1 {
		t.Fatalf("interference stretch missing: est = %g", inter.EstIOTimeS)
	}
	if inter.SumInterference <= 2 { // two apps, both factors > 1
		t.Fatalf("interfere sumI = %g, want > 2", inter.SumInterference)
	}
	if fcfs.CPUSecondsWasted <= 0 || inter.CPUSecondsWasted <= 0 {
		t.Fatalf("cpu-seconds: fcfs %g, interfere %g", fcfs.CPUSecondsWasted, inter.CPUSecondsWasted)
	}
	if c.Best < 0 || c.Best >= len(c.Outcomes) {
		t.Fatalf("best index %d out of range", c.Best)
	}
}

// TestUnregisterMidPhaseRearbitrates mirrors the daemon's vanished-holder
// handling: the survivors must be re-arbitrated when a busy session leaves.
func TestUnregisterMidPhaseRearbitrates(t *testing.T) {
	tr := &trace.Trace{
		Header: trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"},
		Events: []trace.Event{
			{Type: trace.EvRegister, Time: 0, SID: 1, App: "A", Cores: 1},
			{Type: trace.EvRegister, Time: 0, SID: 2, App: "B", Cores: 1},
			{Type: trace.EvInform, Time: 1, SID: 1},
			{Type: trace.EvWait, Time: 1, SID: 1},
			{Type: trace.EvInform, Time: 2, SID: 2},
			{Type: trace.EvWait, Time: 2, SID: 2},       // deferred behind A
			{Type: trace.EvUnregister, Time: 3, SID: 1}, // A vanishes mid-phase
			{Type: trace.EvRelease, Time: 5, SID: 2, Bytes: 1},
			{Type: trace.EvEnd, Time: 5, SID: 2},
		},
	}
	res, err := Under(tr, core.FCFSPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.GrantsServed != 2 {
		t.Fatalf("grants = %d, want 2 (B granted after A vanished)", res.GrantsServed)
	}
	if math.Abs(res.TotalWaitS-1) > 1e-9 { // B waited 2..3
		t.Fatalf("wait = %g, want 1", res.TotalWaitS)
	}
}

// TestUnservedCensoring: a wait still pending when the trace ends is
// censored at the last instant and reported, not silently dropped.
func TestUnservedCensoring(t *testing.T) {
	tr := &trace.Trace{
		Header: trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"},
		Events: []trace.Event{
			{Type: trace.EvRegister, Time: 0, SID: 1, App: "A", Cores: 1},
			{Type: trace.EvRegister, Time: 0, SID: 2, App: "B", Cores: 1},
			{Type: trace.EvInform, Time: 1, SID: 1},
			{Type: trace.EvWait, Time: 1, SID: 1},
			{Type: trace.EvInform, Time: 2, SID: 2},
			{Type: trace.EvWait, Time: 2, SID: 2}, // never served: A never ends
			{Type: trace.EvProgress, Time: 10, SID: 1, Bytes: 1},
		},
	}
	res, err := Under(tr, core.FCFSPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unserved != 1 {
		t.Fatalf("unserved = %d, want 1", res.Unserved)
	}
	if math.Abs(res.TotalWaitS-8) > 1e-9 { // censored 2..10
		t.Fatalf("censored wait = %g, want 8", res.TotalWaitS)
	}
	if res.GrantsServed != 1 {
		t.Fatalf("grants = %d, want 1", res.GrantsServed)
	}
}

// TestUnderStreamWithoutWaits: a stream whose sessions inform and end without
// ever waiting still flips authorizations; its replay sizes nothing from the
// (zero) wait count.
func TestUnderStreamWithoutWaits(t *testing.T) {
	tr := &trace.Trace{
		Header: trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"},
		Events: []trace.Event{
			{Type: trace.EvRegister, Time: 0, SID: 1, App: "A", Cores: 1},
			{Type: trace.EvRegister, Time: 0, SID: 2, App: "B", Cores: 1},
			{Type: trace.EvInform, Time: 1, SID: 1},
			{Type: trace.EvInform, Time: 2, SID: 2},
			{Type: trace.EvEnd, Time: 3, SID: 1},
			{Type: trace.EvEnd, Time: 4, SID: 2},
		},
	}
	res, err := Under(tr, core.FCFSPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flips) != 2 || len(res.Waits) != 0 {
		t.Fatalf("flips=%d waits=%d, want 2 grants and no waits", len(res.Flips), len(res.Waits))
	}
}

// TestStandardPoliciesRebuildFromNames: every candidate of the committed
// fixture's and the synthetic trace's comparison is named by a spec that,
// recorded as a header's policy, rebuilds the very policy compared, models
// compared by value — so a recommendation can be deployed as it prints.
// A delay recording is compared against its own overlap, 0.5 when it has
// none.
func TestStandardPoliciesRebuildFromNames(t *testing.T) {
	fixture, err := trace.Load("testdata/daemon_4targets.trace")
	if err != nil {
		t.Fatal(err)
	}
	// The fixture's legacy header names bare delay: delay(0).
	if p, err := fixture.Header.BuildPolicy(); err != nil || p.Name() != "delay(0.00)" {
		t.Fatalf("the fixture's header %+v builds %v, %v; want delay(0.00)", fixture.Header, p, err)
	}
	synth := replaytest.Trace(4, 1, 1).Header
	for _, tc := range []struct {
		hdr   trace.Header
		delay string
	}{
		{fixture.Header, "delay(0.50)"}, // recorded as bare delay, no overlap
		{synth, "delay(0.50)"},
		{trace.Header{Source: trace.SourceDaemon, Policy: "delay(0.25)", FSMiBps: 1}, "delay(0.25)"},
	} {
		cands := StandardPolicies(tc.hdr, -1)
		if len(cands) != 5 || cands[3].Name() != tc.delay {
			t.Fatalf("%+v: candidates %v, want five with %s", tc.hdr, cands, tc.delay)
		}
		for _, c := range cands {
			hdr := tc.hdr
			hdr.Policy = c.Name()
			p, err := hdr.BuildPolicy()
			if err != nil || !reflect.DeepEqual(p, c) {
				t.Errorf("%s rebuilds %#v, %v; compared %#v", c.Name(), p, err, c)
			}
		}
	}
}
