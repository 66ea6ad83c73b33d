package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/approx"
	"repro/internal/sim"
)

// Verbs of the sim ≡ daemon schedule: a byte string of (verb, arg) pairs,
// arg picking the application and parameterizing the verb.
const (
	verbPrepare = iota
	verbInform
	verbWait // take the step if authorized, as a granted Wait does
	verbProgress
	verbRelease
	verbEnd
	verbTick
	verbCount
)

func renderRecords(log []DecisionRecord) string {
	var sb strings.Builder
	for _, d := range log {
		fmt.Fprintf(&sb, "t=%v %s allowed=%v %s\n", d.Time, d.Policy, d.Allowed, d.Reason)
	}
	return sb.String()
}

// driveLayer runs the schedule through a Layer on a zero-latency engine: one
// driver process issues every verb and yields after each, so the arbitration
// the verb poked runs before the next verb, at the same instant.
func driveLayer(p Policy, names []string, schedule []byte) string {
	eng := sim.NewEngine()
	layer := NewLayer(eng, p, 0)
	coords := make([]*Coordinator, len(names))
	for i, n := range names {
		coords[i] = layer.Register(n, 16)
	}
	eng.Go("driver", func(pr *sim.Proc) {
		for i := 0; i+1 < len(schedule); i += 2 {
			arg := schedule[i+1]
			c := coords[int(arg)%len(coords)]
			switch schedule[i] % verbCount {
			case verbPrepare:
				info := Info{}
				info.SetFloat(KeyBytesTotal, 1e7*float64(1+arg%13))
				c.Prepare(info)
			case verbInform:
				c.Inform(pr)
			case verbWait:
				if c.State() != Idle && c.Check() {
					c.Wait(pr) // authorized: returns at once, Active
				}
			case verbProgress:
				c.Progress(1e6 * float64(arg))
			case verbRelease:
				if c.State() == Active {
					c.Release(pr)
				}
			case verbEnd:
				c.End(pr)
			case verbTick:
				pr.Sleep(0.3 * float64(1+arg%4))
			}
			pr.Sleep(0)
		}
		for _, c := range coords { // or a policy that rechecks would never let the run end
			c.End(pr)
			pr.Sleep(0)
		}
	})
	eng.Run()
	return renderRecords(layer.Log())
}

// driveShard runs the same schedule through an Arbiter set up as
// internal/server sets up a shard — out of an ArbiterSet with the default
// 256-record ring — deciding after every verb that would have sent the
// daemon a message, and when a recheck the policy asked for comes due.
func driveShard(t *testing.T, p Policy, names []string, schedule []byte) string {
	set := NewArbiterSet(p)
	set.SetLogBound(256)
	ar := set.Get("")
	apps := make([]*AppState, len(names))
	for i, n := range names {
		var err error
		if apps[i], err = ar.Register(n, 16); err != nil {
			t.Fatal(err)
		}
	}
	now, recheckAt := 0.0, math.Inf(1)
	arbitrate := func() {
		recheckAt = math.Inf(1)
		if out := ar.Arbitrate(now); out.RecheckAfter > 0 {
			recheckAt = now + out.RecheckAfter
		}
	}
	for i := 0; i+1 < len(schedule); i += 2 {
		arg := schedule[i+1]
		a := apps[int(arg)%len(apps)]
		switch schedule[i] % verbCount {
		case verbPrepare:
			info := Info{}
			info.SetFloat(KeyBytesTotal, 1e7*float64(1+arg%13))
			a.Prepare(info)
		case verbInform:
			a.Inform(now)
			arbitrate()
		case verbWait:
			if a.State() != Idle && a.Authorized() {
				if err := a.Activate(); err != nil {
					t.Fatal(err)
				}
			}
		case verbProgress:
			a.Progress(1e6 * float64(arg))
		case verbRelease:
			if a.State() == Active {
				if err := a.Release(); err != nil {
					t.Fatal(err)
				}
				arbitrate()
			}
		case verbEnd:
			a.End()
			arbitrate()
		case verbTick:
			wake := now + 0.3*float64(1+arg%4)
			for recheckAt <= wake {
				if recheckAt == wake {
					t.Fatalf("schedule is ambiguous: a recheck and the next verb both fall on t=%v", wake)
				}
				now = recheckAt
				arbitrate()
			}
			now = wake
		}
	}
	for _, a := range apps {
		a.End()
		arbitrate()
	}
	return renderRecords(ar.Log())
}

// TestLayerMatchesDaemonShard is the sim ≡ daemon check in the small: the
// simulator's Layer and the daemon's shard sit on one Arbiter and one policy
// path, so the same verbs at the same times must log the same decisions,
// reasons word for word.
func TestLayerMatchesDaemonShard(t *testing.T) {
	names := []string{"m", "c", "z", "a"}
	for pi, p := range diffPolicies {
		for seed := int64(1); seed <= 8; seed++ {
			schedule := make([]byte, 240) // fewer decisions than the shard's ring holds
			rand.New(rand.NewSource(seed*31 + int64(pi))).Read(schedule)
			got, want := driveLayer(p, names, schedule), driveShard(t, p, names, schedule)
			if strings.Count(want, "\n") < 20 {
				t.Fatalf("%s seed %d: schedule took only %d decisions", p.Name(), seed, strings.Count(want, "\n"))
			}
			if got != want {
				t.Fatalf("%s seed %d: the Layer logged\n%s\nthe shard\n%s", p.Name(), seed, got, want)
			}
		}
	}
}

// scripted allows one named application per decision, in script order.
type scripted struct {
	script []string
	n      *int
}

func (scripted) Name() string { return "scripted" }

func (s scripted) Arbitrate(now float64, apps []AppView) Decision {
	name := s.script[min(*s.n, len(s.script)-1)]
	*s.n++
	return AllowOnly(name, "scripted")
}

// TestStaleGrantMessageWakesNobody: B is granted, revoked and granted again
// within one message latency, so two grant messages fly to the same wait.
// The first ends it. The second lands while B is parked in its next wait —
// already granted that one too, but the message saying so is still on its
// way — and belongs to the wait that returned: B must sleep on until its own
// message arrives.
func TestStaleGrantMessageWakesNobody(t *testing.T) {
	eng := sim.NewEngine()
	pol := scripted{n: new(int), script: []string{
		"A", "A", // t=1, 1.5: A holds, B queues behind it
		"B", "A", "B", // t=10, 10.2, 10.4: messages to B land at 11 and 11.4
		"A", // t=11.05: B, woken at 11, is revoked mid-step
		"B", // t=11.3: and granted its second wait, message due at 12.3
	}}
	layer := NewLayer(eng, pol, 1)
	a, b := layer.Register("A", 1), layer.Register("B", 1)
	var woke []float64
	eng.Go("A", func(p *sim.Proc) {
		a.Inform(p)
		a.Wait(p)
		for _, at := range []float64{9, 9.2, 9.4, 10.05, 10.3} {
			p.SleepUntil(at)
			a.Inform(p) // mid-phase: only pokes the layer
		}
	})
	eng.Go("B", func(p *sim.Proc) {
		p.Sleep(0.5)
		b.Inform(p)
		b.Wait(p)
		woke = append(woke, p.Now())
		p.Sleep(0.1)
		b.Release(p)
		b.Inform(p)
		b.Wait(p)
		woke = append(woke, p.Now())
	})
	eng.RunUntil(100)
	if len(woke) != 2 || !approx.Equal(woke[0], 11, 1e-9) || !approx.Equal(woke[1], 12.3, 1e-9) {
		t.Fatalf("B's waits returned at %v, want [11 12.3]: the second on its own grant message, not the stale one at 11.4", woke)
	}
	if b.grantsLive != 0 || b.grantsStale != 0 {
		t.Fatalf("messages unaccounted for: live=%d stale=%d", b.grantsLive, b.grantsStale)
	}
}
