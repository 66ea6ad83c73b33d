package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// randomScenario drives nApps fake applications with random phase counts,
// round times and start offsets under the given policy, and returns the
// layer (for log inspection) plus a flag set when every app completed.
func randomScenario(seed int64, policy Policy, nApps int) (*Layer, bool) {
	eng := sim.NewEngine()
	layer := NewLayer(eng, policy, 1e-4)
	rng := rand.New(rand.NewSource(seed))
	completed := 0
	for i := 0; i < nApps; i++ {
		name := string(rune('A' + i))
		cores := 1 << (2 + rng.Intn(8))
		sess := NewSession(layer.Register(name, cores))
		start := rng.Float64() * 10
		rounds := 1 + rng.Intn(6)
		roundTime := 0.2 + rng.Float64()*2
		phases := 1 + rng.Intn(3)
		gap := rng.Float64() * 5
		bytes := float64(rounds) * roundTime // arbitrary unit work
		eng.GoAt(start, name, func(p *sim.Proc) {
			for ph := 0; ph < phases; ph++ {
				if ph > 0 {
					p.Sleep(gap)
				}
				info := Info{}
				info.SetFloat(KeyBytesTotal, bytes)
				info.SetFloat(KeyAloneBW, 1)
				info.SetInt(KeyCores, int64(cores))
				sess.Begin(p, ParseInfo(info))
				for r := 0; r < rounds; r++ {
					p.Sleep(roundTime)
					sess.C.Progress(float64(r+1) * roundTime)
					if r < rounds-1 {
						sess.Yield(p)
					}
				}
				sess.End(p)
			}
			completed++
		})
	}
	eng.RunUntil(1e6) // generous horizon; far beyond any legitimate schedule
	return layer, completed == nApps
}

func policyForSeed(seed int64) Policy {
	m := &PerfModel{FSBandwidth: 1, ProcNIC: 1}
	switch seed % 5 {
	case 0:
		return InterferePolicy{}
	case 1:
		return FCFSPolicy{}
	case 2:
		return InterruptPolicy{}
	case 3:
		return DynamicPolicy{Metric: CPUSecondsWasted{}, Model: m, AllowInterfere: seed%2 == 0}
	default:
		return DelayPolicy{Overlap: 0.5, Model: m}
	}
}

// Property: liveness — whatever the policy and workload shape, every
// application finishes all of its phases (no deadlock, no starvation in a
// finite workload).
func TestPropertyAllPoliciesLive(t *testing.T) {
	f := func(seed int64) bool {
		n := 2 + int(seed%4+4)%4 // 2..5 apps
		_, done := randomScenario(seed, policyForSeed(seed), n)
		if !done {
			t.Logf("seed %d: apps did not complete", seed)
		}
		return done
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: safety — serializing policies (FCFS, interrupt, dynamic without
// the interference candidate) never authorize two applications at once.
func TestPropertySerializingPoliciesAuthorizeOne(t *testing.T) {
	m := &PerfModel{FSBandwidth: 1, ProcNIC: 1}
	pols := []Policy{
		FCFSPolicy{},
		InterruptPolicy{},
		DynamicPolicy{Metric: CPUSecondsWasted{}, Model: m},
	}
	f := func(seed int64) bool {
		pol := pols[int((seed%3+3)%3)]
		layer, done := randomScenario(seed, pol, 3)
		if !done {
			return false
		}
		for _, d := range layer.Log() {
			if len(d.Allowed) > 1 {
				t.Logf("seed %d: %s authorized %v", seed, pol.Name(), d.Allowed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Property: under FCFS, the first arrival of two non-overlapping phases is
// never delayed: an app alone in the system always proceeds immediately.
func TestPropertyLoneAppNeverWaits(t *testing.T) {
	f := func(seed int64) bool {
		eng := sim.NewEngine()
		layer := NewLayer(eng, policyForSeed(seed), 1e-4)
		sess := NewSession(layer.Register("A", 4))
		rng := rand.New(rand.NewSource(seed))
		ioTime := 0.5 + rng.Float64()*3
		var done float64
		eng.Go("A", func(p *sim.Proc) {
			info := Info{}
			info.SetFloat(KeyBytesTotal, 1)
			sess.Begin(p, ParseInfo(info))
			p.Sleep(ioTime)
			sess.End(p)
			done = p.Now()
		})
		eng.Run()
		// Only coordination latency (2 messages) may be added.
		return done <= ioTime+4*layer.Latency()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
