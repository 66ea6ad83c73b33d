package core

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/approx"
	"repro/internal/sim"
)

// scripted allows one named application per decision, in script order.
type scripted struct {
	script []string
	n      *int
}

func (scripted) Name() string { return "scripted" }

func (s scripted) Arbitrate(now float64, apps []AppView, allowed []bool, _ *Scratch) (Reason, float64) {
	name := s.script[min(*s.n, len(s.script)-1)]
	*s.n++
	for i, a := range apps {
		allowed[i] = a.Name == name
	}
	return TextReason("scripted"), 0
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
			p.Sleep(at - p.Now())
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

// TestDecisionLog: the Layer logs each decision that acted under the
// policy's name, and a Layer whose log is switched off logs none.
func TestDecisionLog(t *testing.T) {
	for _, logging := range []bool{true, false} {
		eng := sim.NewEngine()
		layer := NewLayer(eng, FCFSPolicy{}, 1e-4)
		layer.SetLogging(logging)
		a := NewSession(layer.Register("A", 1))
		var done float64
		fakeIO(eng, a, 0, 2, 1, basicInfo(2, 1), &done)
		eng.Run()
		if !logging {
			if layer.LogLen() != 0 {
				t.Fatalf("a layer with its log off logged %d decisions", layer.LogLen())
			}
			continue
		}
		if len(layer.Log()) == 0 || layer.LogLen() != len(layer.Log()) {
			t.Fatalf("logged %d decisions, LogLen %d", len(layer.Log()), layer.LogLen())
		}
		for _, d := range layer.Log() {
			if d.Policy != "fcfs" || !slices.Equal(d.Allowed, []string{"A"}) {
				t.Fatalf("unexpected record in log: %+v", d)
			}
		}
	}
}

// Property: the decision log is well-formed — times nondecreasing and every
// authorized name is a registered app.
func TestPropertyDecisionLogWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		layer, done := randomScenario(seed, policyForSeed(seed), 4)
		if !done {
			return false
		}
		valid := map[string]bool{"A": true, "B": true, "C": true, "D": true}
		last := -1.0
		for _, d := range layer.Log() {
			if d.Time < last {
				return false
			}
			last = d.Time
			for _, name := range d.Allowed {
				if !valid[name] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
