package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refArbiter is the Arbiter as it was before the persistent queue, kept as
// the oracle: every decision snapshots all non-idle applications, sorts the
// views by (arrival, name), asks the policy, and walks all applications in
// registration order to apply the result. Its AppStates are detached
// (no owning Arbiter), so they are pure protocol state.
type refArbiter struct {
	policy Policy
	apps   []*AppState
}

// outcome is one decision as the tests compare it; Allowed is sorted.
type outcome struct {
	Acted            bool
	Reason           Reason
	RecheckAfter     float64
	Granted, Revoked []*AppState
	Allowed          []string
}

// arbitrate runs one decision on ar and collects it.
func arbitrate(ar *Arbiter, now float64) outcome {
	reason, recheck, acted := ar.Arbitrate(now)
	out := outcome{Acted: acted, Reason: reason, RecheckAfter: recheck, Granted: ar.granted, Revoked: ar.revoked}
	if acted {
		out.Allowed = ar.AppendAllowed(nil)
	}
	return out
}

func (r *refArbiter) arbitrate(now float64) (out outcome) {
	var views []AppView
	var viewApps []*AppState
	for _, a := range r.apps {
		if a.state != Idle {
			views, viewApps = append(views, a.View()), append(viewApps, a)
		}
	}
	if len(views) == 0 {
		return outcome{}
	}
	for i := 1; i < len(views); i++ {
		for j := i; j > 0 && viewLess(&views[j], &views[j-1]); j-- {
			views[j], views[j-1] = views[j-1], views[j]
			viewApps[j], viewApps[j-1] = viewApps[j-1], viewApps[j]
		}
	}
	allowed := make([]bool, len(views))
	out.Acted = true
	out.Reason, out.RecheckAfter = r.policy.Arbitrate(now, views, allowed, new(Scratch))
	allowedNow := make(map[*AppState]bool)
	for i, a := range viewApps {
		allowedNow[a] = allowed[i]
		if allowed[i] {
			out.Allowed = append(out.Allowed, a.name)
		}
	}
	for _, a := range r.apps {
		if a.state == Idle {
			continue
		}
		was := a.authorized
		a.authorized = allowedNow[a]
		switch {
		case a.authorized && !was:
			out.Granted = append(out.Granted, a)
		case !a.authorized && was:
			out.Revoked = append(out.Revoked, a)
		}
	}
	sort.Strings(out.Allowed)
	return out
}

func (r *refArbiter) otherAuthorized(app *AppState) bool {
	for _, a := range r.apps {
		if a != app && a.authorized {
			return true
		}
	}
	return false
}

// spy records the views a policy was shown and fails the test if the policy
// wrote to them — they are the Arbiter's persistent array — or decided
// otherwise than the oracle where the policy has one (see oracleDecision),
// rendered reason included.
type spy struct {
	Policy
	t    *testing.T
	seen []AppView
}

func (s *spy) Arbitrate(now float64, apps []AppView, allowed []bool, scratch *Scratch) (Reason, float64) {
	s.seen = append(s.seen[:0], apps...)
	reason, recheck := s.Policy.Arbitrate(now, apps, allowed, scratch)
	if dec, ok := oracleDecision(s.Policy, now, apps); ok {
		if dec.Reason.String() != reason.String() || dec.RecheckAfter != recheck {
			s.t.Fatalf("%s: the oracle says %q recheck %v, Arbitrate %q recheck %v",
				s.Name(), dec.Reason, dec.RecheckAfter, reason, recheck)
		}
		for i, v := range apps {
			if dec.Allowed[v.Name] != allowed[i] {
				s.t.Fatalf("%s: the oracle and Arbitrate disagree on %s in %+v", s.Name(), v.Name, apps)
			}
		}
	}
	if !reflect.DeepEqual(s.seen, apps) {
		s.t.Fatalf("%s wrote to its views", s.Name())
	}
	return reason, recheck
}

// wording is the reason text as the policies formatted it eagerly, before
// reasons became values, rendered independently of Reason.String: the dynamic,
// priority and fair-share sentences are the ones their old bodies printed.
func wording(p Policy, views []AppView) (text string, ok bool) {
	if len(views) == 0 {
		return "", false // nothing to arbitrate, nothing said
	}
	if dec, ok := oracleDecision(p, 0, views); ok {
		return dec.Reason.String(), true
	}
	switch p := p.(type) {
	case InterferePolicy:
		return "interference allowed", true
	case FCFSPolicy:
		return fmt.Sprintf("%s arrived first (t=%.3f)", views[0].Name, views[0].Arrival), true
	case InterruptPolicy:
		last := views[len(views)-1]
		return fmt.Sprintf("%s arrived last (t=%.3f)", last.Name, last.Arrival), true
	case DelayPolicy:
		if len(views) == 1 {
			return "single application", true
		}
		return fmt.Sprintf("holder %s rem=%.2fs", views[0].Name, p.Model.SoloTime(&views[0], views[0].Remaining())), true
	}
	return "", false
}

var diffModel = &PerfModel{FSBandwidth: 1e9, ProcNIC: 1e7}

// diffPolicies is every policy in the package, with dynamic under two metrics, with and without its interfere candidate.
var diffPolicies = []Policy{
	InterferePolicy{},
	FCFSPolicy{},
	InterruptPolicy{},
	DelayPolicy{Overlap: 0.5, Model: diffModel},
	DynamicPolicy{Metric: CPUSecondsWasted{}, Model: diffModel, AllowInterfere: true},
	DynamicPolicy{Metric: CPUSecondsWasted{}, Model: diffModel},
	DynamicPolicy{Metric: SumInterferenceFactors{Model: diffModel}, Model: diffModel, AllowInterfere: true},
	DynamicPolicy{Metric: SumInterferenceFactors{Model: diffModel}, Model: diffModel},
	FairSharePolicy{Quantum: 2},
}

// Schedule operations. A schedule is a byte string of (op, arg) pairs; op
// indexes opTable modulo its length, arg picks the application slot and
// parameterizes the operation.
const (
	opRegister = iota
	opPrepare
	opComplete
	opInform
	opActivate
	opProgress
	opRelease
	opEnd
	opUnregister
	opReset
	opArbitrate
	opTick
)

// opTable weights the random mix toward the protocol's common verbs.
var opTable = []byte{
	opRegister, opRegister, opPrepare, opComplete,
	opInform, opInform, opInform, opActivate, opProgress, opRelease, opEnd, opEnd,
	opUnregister, opReset,
	opArbitrate, opArbitrate, opArbitrate, opTick, opTick,
}

// slotNames are registered on demand, in whatever order the schedule asks:
// "0" and "a" sort before names that typically register earlier.
var slotNames = []string{"m", "k", "z", "c", "a", "0"}

// coverage counts the schedule shapes the incremental queue has to survive;
// the seeded test asserts the generator reaches every one of them.
type coverage struct {
	arrivalTies, endInformNoArbitrate, lateFirstName, unregisterMidPhase, resetMidPhase, arbitrations int
	dynamic                                                                                           [4]int // decisions each dynamic candidate won: serialize, sjf, interrupt, interfere
}

type diffRun struct {
	t         *testing.T
	real      *Arbiter
	ref       *refArbiter
	realSpy   *spy
	refSpy    *spy
	realApps  []*AppState // by slot; nil while unregistered
	refApps   []*AppState
	endedCold []bool // slot Ended since the last Arbitrate
	now       float64
	cov       *coverage
}

func newDiffRun(t *testing.T, p Policy, cov *coverage) *diffRun {
	d := &diffRun{t: t, cov: cov,
		realApps: make([]*AppState, len(slotNames)), refApps: make([]*AppState, len(slotNames)),
		endedCold: make([]bool, len(slotNames))}
	d.realSpy, d.refSpy = &spy{Policy: p, t: t}, &spy{Policy: p, t: t}
	d.real = NewArbiter(d.realSpy)
	d.ref = &refArbiter{policy: d.refSpy}
	return d
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func appNames(apps []*AppState) []string {
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.name
	}
	return out
}

// step applies one operation to both arbiters and compares everything
// observable, plus the real arbiter's internal invariants.
func (d *diffRun) step(i int, op, arg byte) {
	t := d.t
	slot := int(arg) % len(slotNames)
	ra, fa := d.realApps[slot], d.refApps[slot]
	op = opTable[int(op)%len(opTable)]
	if ra == nil && op != opRegister && op != opReset && op != opArbitrate && op != opTick {
		return
	}
	switch op {
	case opRegister:
		if ra != nil {
			if _, err := d.real.Register(slotNames[slot], 1); err == nil {
				t.Fatalf("step %d: duplicate Register accepted", i)
			}
			return
		}
		first := len(d.ref.apps) > 0
		for _, a := range d.ref.apps {
			first = first && slotNames[slot] < a.name
		}
		if first {
			d.cov.lateFirstName++
		}
		cores := 1 + int(arg)/len(slotNames)
		ra, err := d.real.Register(slotNames[slot], cores)
		if err != nil {
			t.Fatalf("step %d: Register: %v", i, err)
		}
		d.realApps[slot] = ra
		d.refApps[slot] = &AppState{name: slotNames[slot], cores: cores, regCores: cores}
		d.ref.apps = append(d.ref.apps, d.refApps[slot])
	case opPrepare:
		info := Info{}
		info.SetFloat(KeyBytesTotal, 1e7*float64(1+arg%13))
		if arg%3 == 0 {
			info.SetInt(KeyCores, int64(1+arg%64))
		}
		if arg%5 == 0 {
			info.SetFloat(KeyAloneBW, 1e6*float64(1+arg%7))
		}
		ra.Prepare(ParseInfo(info))
		fa.Prepare(ParseInfo(info))
	case opComplete:
		if re, fe := errText(ra.Complete().Err()), errText(fa.Complete().Err()); re != fe {
			t.Fatalf("step %d: Complete: %q vs reference %q", i, re, fe)
		}
	case opInform:
		if fa.state == Idle {
			for _, a := range d.ref.apps {
				if a.state != Idle && a.arrival == d.now {
					d.cov.arrivalTies++
					break
				}
			}
			if d.endedCold[slot] {
				d.cov.endInformNoArbitrate++
			}
		}
		if rf, ff := ra.Inform(d.now), fa.Inform(d.now); rf != ff {
			t.Fatalf("step %d: Inform fresh=%v, reference %v", i, rf, ff)
		}
	case opActivate:
		if re, fe := errText(ra.Activate().Err()), errText(fa.Activate().Err()); re != fe {
			t.Fatalf("step %d: Activate: %q vs reference %q", i, re, fe)
		}
	case opProgress:
		ra.Progress(1e6 * float64(arg))
		fa.Progress(1e6 * float64(arg))
	case opRelease:
		if re, fe := errText(ra.Release().Err()), errText(fa.Release().Err()); re != fe {
			t.Fatalf("step %d: Release: %q vs reference %q", i, re, fe)
		}
	case opEnd:
		d.endedCold[slot] = fa.state != Idle
		ra.End()
		fa.End()
	case opUnregister:
		if fa.state != Idle {
			d.cov.unregisterMidPhase++
		}
		d.real.Unregister(ra)
		d.real.Unregister(ra) // twice is a no-op
		ra.Progress(1)        // a detached AppState must not reach the arbiter
		ra.End()
		k := 0
		for d.ref.apps[k] != fa {
			k++
		}
		d.ref.apps = append(d.ref.apps[:k], d.ref.apps[k+1:]...)
		d.realApps[slot], d.refApps[slot] = nil, nil
		d.endedCold[slot] = false
	case opReset:
		if arg%4 != 0 {
			return // keep resets rare enough for queues to build up
		}
		for _, a := range d.ref.apps {
			if a.state != Idle {
				d.cov.resetMidPhase++
				break
			}
		}
		d.real.Reset()
		for _, a := range d.ref.apps {
			a.reset()
		}
		clear(d.endedCold)
	case opArbitrate:
		d.cov.arbitrations++
		clear(d.endedCold)
		d.realSpy.seen, d.refSpy.seen = d.realSpy.seen[:0], d.refSpy.seen[:0]
		got, want := arbitrate(d.real, d.now), d.ref.arbitrate(d.now)
		if !reflect.DeepEqual(d.realSpy.seen, d.refSpy.seen) {
			t.Fatalf("step %d: policy saw\n%+v\nreference\n%+v", i, d.realSpy.seen, d.refSpy.seen)
		}
		if got.Acted != want.Acted || got.Reason.String() != want.Reason.String() || got.RecheckAfter != want.RecheckAfter {
			t.Fatalf("step %d: outcome %+v, reference %+v", i, got, want)
		}
		if text, ok := wording(d.realSpy.Policy, d.refSpy.seen); ok && got.Reason.String() != text {
			t.Fatalf("step %d: reason reads %q, was %q", i, got.Reason, text)
		}
		if k := got.Reason.kind; k >= reasonDynSerialize {
			d.cov.dynamic[k-reasonDynSerialize]++
		}
		if g, w := appNames(got.Granted), appNames(want.Granted); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: granted %v, reference %v", i, g, w)
		}
		if g, w := appNames(got.Revoked), appNames(want.Revoked); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: revoked %v, reference %v", i, g, w)
		}
		if g, w := fmt.Sprint(got.Allowed), fmt.Sprint(want.Allowed); g != w {
			t.Fatalf("step %d: allowed %s, reference %s", i, g, w)
		}
	case opTick:
		d.now += float64(arg % 3) // zero keeps the next arrivals tied
	}
	d.compareState(i)
}

// compareState checks the per-application state both arbiters expose and
// the invariants of the real arbiter's queue.
func (d *diffRun) compareState(i int) {
	t, ar := d.t, d.real
	if g, w := appNames(ar.apps), appNames(d.ref.apps); !reflect.DeepEqual(g, w) {
		t.Fatalf("step %d: registered %v, reference %v", i, g, w)
	}
	if ar.otherAuthorized(nil) != d.ref.otherAuthorized(nil) {
		t.Fatalf("step %d: otherAuthorized(nil) diverged", i)
	}
	queued, authorized := 0, 0
	for k, a := range ar.apps {
		f := d.ref.apps[k]
		if a.View() != f.View() || a.authorized != f.authorized || a.idx != k || a.ar != ar {
			t.Fatalf("step %d: %s: view %+v authorized=%v idx=%d, reference %+v %v %d",
				i, a.name, a.View(), a.authorized, a.idx, f.View(), f.authorized, k)
		}
		if ar.otherAuthorized(a) != d.ref.otherAuthorized(f) {
			t.Fatalf("step %d: otherAuthorized(%s) diverged", i, a.name)
		}
		if a.authorized {
			authorized++
		}
		if a.state == Idle {
			continue
		}
		queued++
		if a.qpos < ar.head || a.qpos >= len(ar.queue) || ar.queue[a.qpos] != a {
			t.Fatalf("step %d: %s not at its queue position %d", i, a.name, a.qpos)
		}
	}
	if len(ar.queue) != len(ar.views) || len(ar.queue) != len(ar.auth) || ar.head > len(ar.queue) ||
		len(ar.queue)-ar.head != queued || ar.nAuth != authorized {
		t.Fatalf("step %d: queue len %d/%d/%d head %d nAuth %d; %d queued, %d authorized",
			i, len(ar.queue), len(ar.views), len(ar.auth), ar.head, ar.nAuth, queued, authorized)
	}
	for k := ar.head; k < len(ar.queue); k++ {
		a := ar.queue[k]
		if ar.views[k] != a.View() || ar.auth[k] != a.authorized {
			t.Fatalf("step %d: slot %d stale: view %+v auth=%v, app %+v %v",
				i, k, ar.views[k], ar.auth[k], a.View(), a.authorized)
		}
		if k > ar.head && !viewLess(&ar.views[k-1], &ar.views[k]) {
			t.Fatalf("step %d: queue out of order at %d", i, k)
		}
	}
}

func (d *diffRun) run(schedule []byte) {
	for i := 0; i+1 < len(schedule); i += 2 {
		d.step(i/2, schedule[i], schedule[i+1])
	}
}

// opByte returns a schedule byte that selects op.
func opByte(op byte) byte {
	for i, o := range opTable {
		if o == op {
			return byte(i)
		}
	}
	panic("unknown op")
}

// craftedSchedules pin the named hazards one by one; slots index slotNames.
func craftedSchedules() [][]byte {
	asm := func(pairs ...byte) []byte {
		for i := 0; i < len(pairs); i += 2 {
			pairs[i] = opByte(pairs[i])
		}
		return pairs
	}
	return [][]byte{
		// Equal arrivals: the name breaks the tie, against registration order.
		asm(opRegister, 0, opRegister, 1, opRegister, 2, opInform, 2, opInform, 0, opInform, 1, opArbitrate, 0),
		// End then Inform with no Arbitrate in between, holder and waiter.
		asm(opRegister, 0, opRegister, 1, opInform, 0, opTick, 1, opInform, 1, opArbitrate, 0,
			opEnd, 0, opTick, 1, opInform, 0, opArbitrate, 0, opEnd, 0, opInform, 0, opEnd, 1, opInform, 1, opArbitrate, 0),
		// A late Register of the name that sorts first, joining a tie.
		asm(opRegister, 0, opRegister, 1, opInform, 0, opInform, 1, opArbitrate, 0,
			opRegister, 5, opInform, 5, opArbitrate, 0, opEnd, 5, opArbitrate, 0),
		// Unregister mid-phase: the holder, then a waiter in the middle.
		asm(opRegister, 0, opRegister, 1, opRegister, 2, opRegister, 3, opInform, 0, opTick, 1, opInform, 1,
			opTick, 1, opInform, 2, opTick, 1, opInform, 3, opArbitrate, 0, opActivate, 0,
			opUnregister, 0, opArbitrate, 0, opUnregister, 2, opArbitrate, 0, opRegister, 0, opInform, 0, opArbitrate, 0),
		// Reset mid-phase and reuse; Prepare(KeyCores) must not survive it.
		asm(opRegister, 0, opRegister, 1, opPrepare, 0, opInform, 0, opInform, 1, opArbitrate, 0, opActivate, 0,
			opReset, 0, opArbitrate, 0, opInform, 1, opTick, 2, opInform, 0, opArbitrate, 0),
		// A long FIFO rotation: head removals outrun the window and force
		// the dead prefix to be reclaimed.
		func() []byte {
			s := asm(opRegister, 0, opRegister, 1, opRegister, 2, opInform, 0, opInform, 1, opInform, 2)
			for i := byte(0); i < 40; i++ {
				s = append(s, asm(opArbitrate, 0, opActivate, i%3, opProgress, 9, opRelease, i%3, opArbitrate, 0,
					opEnd, i%3, opArbitrate, 0, opTick, 1, opInform, i%3)...)
			}
			return s
		}(),
	}
}

// TestArbiterMatchesReference drives the incremental Arbiter and the
// rebuild-and-sort reference through the same schedules — the crafted ones
// and seeded random ones — under every policy.
func TestArbiterMatchesReference(t *testing.T) {
	var cov coverage
	for pi, p := range diffPolicies {
		for _, s := range craftedSchedules() {
			newDiffRun(t, p, &cov).run(s)
		}
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(pi)))
			s := make([]byte, 1200)
			rng.Read(s)
			newDiffRun(t, p, &cov).run(s)
		}
	}
	if cov.arrivalTies == 0 || cov.endInformNoArbitrate == 0 || cov.lateFirstName == 0 ||
		cov.unregisterMidPhase == 0 || cov.resetMidPhase == 0 || cov.arbitrations < 1000 ||
		slices.Contains(cov.dynamic[:], 0) {
		t.Fatalf("schedules missed a hazard: %+v", cov)
	}
	t.Logf("coverage: %+v", cov)
}

// FuzzArbiterSchedule is the same differential check with the schedule and
// the policy chosen by the fuzzer.
func FuzzArbiterSchedule(f *testing.F) {
	for i, s := range craftedSchedules() {
		f.Add(append([]byte{byte(i)}, s...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := diffPolicies[int(data[0])%len(diffPolicies)]
		newDiffRun(t, p, new(coverage)).run(data[1:])
	})
}
