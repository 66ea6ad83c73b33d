package maxmin

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// problem is a max-min input: links, flows crossing some of them, and
// optional rate caps.
type problem struct {
	capacity []float64
	weight   []float64
	path     [][]int
	rateCap  []float64 // 0 = uncapped
}

// net lays p out as a fresh Net with every link's members in flow order.
func (p problem) net() *Net {
	n := &Net{Links: make([]Link, len(p.capacity))}
	for l, c := range p.capacity {
		n.Links[l].Capacity = c
	}
	for f, links := range p.path {
		for _, l := range links {
			n.Links[l].Members = append(n.Links[l].Members, f)
		}
		n.Flows = append(n.Flows, Flow{Weight: p.weight[f], Cap: p.rateCap[f], Links: links})
	}
	return n
}

// randomProblem draws up to five links and up to ten flows, about a
// third of them capped.
func randomProblem(rng *rand.Rand) problem {
	var p problem
	for range 1 + rng.Intn(5) {
		c := 1 + rng.Float64()*1000
		if rng.Intn(10) == 0 {
			c = 0
		}
		p.capacity = append(p.capacity, c)
	}
	for range 1 + rng.Intn(10) {
		var path []int
		for l := range p.capacity {
			if rng.Intn(2) == 0 {
				path = append(path, l)
			}
		}
		if len(path) == 0 {
			path = append(path, rng.Intn(len(p.capacity)))
		}
		rateCap := 0.0
		if rng.Intn(3) == 0 {
			rateCap = 0.5 + rng.Float64()*300
		}
		p.weight = append(p.weight, 0.25+rng.Float64()*8)
		p.path = append(p.path, path)
		p.rateCap = append(p.rateCap, rateCap)
	}
	return p
}

// checkMaxMin fills p and checks the max-min conditions: no link carries
// more than its capacity and no flow more than its cap, and every flow is at
// its cap or crosses a saturated link on which no flow gets more per unit of
// weight.
func checkMaxMin(p problem) error {
	const tol = 1e-9
	n := p.net()
	n.Fill()
	load := make([]float64, len(n.Links))
	for f, fl := range n.Flows {
		if !(fl.Rate >= 0) || math.IsInf(fl.Rate, 1) {
			return fmt.Errorf("flow %d: rate %v", f, fl.Rate)
		}
		if fl.Cap > 0 && fl.Rate > fl.Cap {
			return fmt.Errorf("flow %d: rate %v over its cap %v", f, fl.Rate, fl.Cap)
		}
		for _, l := range fl.Links {
			load[l] += fl.Rate
		}
	}
	for l, k := range n.Links {
		if load[l] > k.Capacity*(1+tol)+tol {
			return fmt.Errorf("link %d carries %v over its capacity %v", l, load[l], k.Capacity)
		}
	}
	for f, fl := range n.Flows {
		if fl.Cap > 0 && fl.Rate >= fl.Cap*(1-tol) {
			continue // at its cap
		}
		perWeight := fl.Rate / fl.Weight
		bottleneck := false
		for _, l := range fl.Links {
			if load[l] < n.Links[l].Capacity*(1-tol) {
				continue
			}
			highest := true
			for _, g := range n.Links[l].Members {
				if n.Flows[g].Rate/n.Flows[g].Weight > perWeight*(1+tol)+tol {
					highest = false
				}
			}
			if highest {
				bottleneck = true
				break
			}
		}
		if !bottleneck {
			return fmt.Errorf("flow %d (rate %v, weight %v) is neither at its cap nor bottlenecked: %+v",
				f, fl.Rate, fl.Weight, p)
		}
	}
	return nil
}

// TestFillIsMaxMin: on random multi-link problems with caps, every rate
// meets the max-min conditions.
func TestFillIsMaxMin(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := range 5000 {
		if err := checkMaxMin(randomProblem(rng)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// FuzzFill holds Fill to the max-min conditions on problems the fuzzer
// builds: each byte pair draws a link (capacity) or a flow (weight, cap and
// the links it crosses).
func FuzzFill(f *testing.F) {
	f.Add([]byte{10, 0, 3, 1, 200, 7, 40, 3})
	f.Add([]byte{0, 255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{128, 1, 128, 1, 129, 3, 130, 255, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p problem
		for i := 0; i+1 < len(data) && len(p.weight) < 16; i += 2 {
			a, b := data[i], data[i+1]
			if a < 128 && len(p.capacity) < 8 || len(p.capacity) == 0 {
				p.capacity = append(p.capacity, float64(b)*float64(1+a%7))
				continue
			}
			var path []int
			for l := range p.capacity {
				if b>>(l%8)&1 == 1 {
					path = append(path, l)
				}
			}
			if len(path) == 0 {
				path = append(path, int(a)%len(p.capacity))
			}
			rateCap := 0.0
			if a%3 == 0 {
				rateCap = float64(b%64) + 0.5
			}
			p.weight = append(p.weight, float64(1+a%5)/float64(1+b%3))
			p.path = append(p.path, path)
			p.rateCap = append(p.rateCap, rateCap)
		}
		if err := checkMaxMin(p); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRefillMatchesFresh: a Net refilled after its capacities, weights and
// caps change gives the same bits as a fresh one — no state of the last fill
// leaks into the next.
func TestRefillMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := range 500 {
		p := randomProblem(rng)
		reused := p.net()
		reused.Fill()
		for l := range p.capacity {
			p.capacity[l] *= 0.5 + rng.Float64()
			reused.Links[l].Capacity = p.capacity[l]
		}
		for f := range p.weight {
			p.weight[f] *= 0.5 + rng.Float64()
			p.rateCap[f] *= rng.Float64() * 2
			reused.Flows[f].Weight, reused.Flows[f].Cap = p.weight[f], p.rateCap[f]
		}
		reused.Fill()
		fresh := p.net()
		fresh.Fill()
		for f := range fresh.Flows {
			if got, want := reused.Flows[f].Rate, fresh.Flows[f].Rate; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d flow %d: refilled %v fresh %v", trial, f, got, want)
			}
		}
	}
}

// TestFillUnconstrainedIsInfinite: a flow on links of infinite capacity only
// is unbounded, beside a bounded one.
func TestFillUnconstrainedIsInfinite(t *testing.T) {
	n := Net{
		Links: []Link{{Capacity: math.Inf(1), Members: []int{0, 1}}, {Capacity: 10, Members: []int{1}}},
		Flows: []Flow{{Weight: 1, Links: []int{0}}, {Weight: 1, Links: []int{0, 1}}},
	}
	n.Fill()
	if !math.IsInf(n.Flows[0].Rate, 1) || n.Flows[1].Rate != 10 {
		t.Fatalf("rates %v %v, want +Inf 10", n.Flows[0].Rate, n.Flows[1].Rate)
	}
}

// TestFillAllocFree: Fill allocates nothing.
func TestFillAllocFree(t *testing.T) {
	n := randomProblemOfSize(64).net()
	if a := testing.AllocsPerRun(100, n.Fill); a != 0 {
		t.Fatalf("Fill allocates %v per run, want 0", a)
	}
}

// randomProblemOfSize is a problem of the given flow count on four links.
func randomProblemOfSize(flows int) problem {
	rng := rand.New(rand.NewSource(int64(flows)))
	p := problem{capacity: []float64{100, 200, 300, 400}}
	for f := range flows {
		p.weight = append(p.weight, 1+rng.Float64())
		p.path = append(p.path, []int{f % 4, (f + 1) % 4})
		p.rateCap = append(p.rateCap, float64(f%3)*7)
	}
	return p
}
