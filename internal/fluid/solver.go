package fluid

import "math"

// Flow describes one flow for the closed-form solver.
type Flow struct {
	Work   float64 // units of work to complete
	Weight float64 // fairness weight (> 0)
	Cap    float64 // max rate, 0 = uncapped
}

// Solver computes closed-form finish times under weighted max-min sharing
// with caps, reusing its internal scratch across calls: the per-step
// water-fill allocates nothing after the first use at a given flow count. A
// Solver is not safe for concurrent use; its zero value is ready.
type Solver struct {
	rates   []float64
	idx     []int
	rem     []float64
	active  []bool
	arrived []bool
}

// grow resizes the scratch for n flows, reusing capacity when possible.
func (s *Solver) grow(n int) {
	if cap(s.rates) < n {
		s.rates = make([]float64, n)
		s.idx = make([]int, 0, n)
		s.rem = make([]float64, n)
		s.active = make([]bool, n)
		s.arrived = make([]bool, n)
	}
	s.rates = s.rates[:n]
	s.rem = s.rem[:n]
	s.active = s.active[:n]
	s.arrived = s.arrived[:n]
}

// FinishTimes computes, analytically, when each flow completes if all flows
// start at t=0 on a resource of the given capacity under weighted max-min
// sharing with caps — the same allocation rule the simulated Resource uses.
// It returns one finish time per flow (math.Inf(1) if a flow can never
// finish: zero capacity and zero cap, or infinite work). The returned slice
// is freshly allocated and owned by the caller; only the intermediate
// scratch is reused.
//
// The algorithm steps from completion to completion: rates are constant
// between completions, so each step advances to the earliest remaining
// finish. O(n^2) in the number of flows.
func (s *Solver) FinishTimes(capacity float64, flows []Flow) []float64 {
	n := len(flows)
	s.grow(n)
	finish := make([]float64, n)
	rem, active := s.rem, s.active
	for i, f := range flows {
		rem[i] = f.Work
		active[i] = f.Work > 0
	}
	now := 0.0
	for {
		rates := s.waterFill(capacity, flows)
		// Earliest completion among active flows.
		best := math.Inf(1)
		for i := range flows {
			if active[i] && rates[i] > 0 {
				if t := rem[i] / rates[i]; t < best {
					best = t
				}
			}
		}
		if math.IsInf(best, 1) {
			// Nothing can progress; everything still active never ends.
			for i := range flows {
				if active[i] {
					finish[i] = math.Inf(1)
				}
			}
			return finish
		}
		now += best
		done := false
		for i := range flows {
			if !active[i] {
				continue
			}
			rem[i] -= rates[i] * best
			if rem[i] <= rem0eps(flows[i].Work) {
				rem[i] = 0
				active[i] = false
				finish[i] = now
				done = true
			}
		}
		if !done {
			// Numerical stall guard: force the minimum-remaining flow out.
			mi, mv := -1, math.Inf(1)
			for i := range flows {
				if active[i] && rates[i] > 0 && rem[i] < mv {
					mi, mv = i, rem[i]
				}
			}
			if mi < 0 {
				for i := range flows {
					if active[i] {
						finish[i] = math.Inf(1)
					}
				}
				return finish
			}
			active[mi] = false
			finish[mi] = now
		}
		all := true
		for i := range flows {
			if active[i] {
				all = false
				break
			}
		}
		if all {
			return finish
		}
	}
}

// FinishTimes is the convenience form of Solver.FinishTimes for one-off
// calls; repeated callers (∆-graph sweeps) should hold a Solver.
func FinishTimes(capacity float64, flows []Flow) []float64 {
	var s Solver
	return s.FinishTimes(capacity, flows)
}

// rem0eps is the remaining work at which a flow of the given total counts as
// done. Infinite work is never within tolerance of done.
func rem0eps(total float64) float64 {
	e := total * 1e-9
	if e < 1e-9 || math.IsInf(e, 1) {
		e = 1e-9
	}
	return e
}

// waterFill mirrors Resource.waterFill for plain slices, writing rates into
// the solver's scratch (valid until the next call). It consumes s.rem and
// s.active as the current progress state.
func (s *Solver) waterFill(capacity float64, flows []Flow) []float64 {
	rates := s.rates
	for i := range rates {
		rates[i] = 0
	}
	avail := capacity
	idx := s.idx[:0]
	for i := range flows {
		if s.active[i] && s.rem[i] > 0 {
			idx = append(idx, i)
		}
	}
	for len(idx) > 0 && avail > 0 {
		var wsum float64
		for _, i := range idx {
			wsum += flows[i].Weight
		}
		if wsum == 0 {
			break
		}
		perWeight := avail / wsum
		progressed := false
		keep := idx[:0]
		for _, i := range idx {
			fair := perWeight * flows[i].Weight
			if flows[i].Cap > 0 && flows[i].Cap < fair {
				rates[i] = flows[i].Cap
				avail -= flows[i].Cap
				progressed = true
			} else {
				keep = append(keep, i)
			}
		}
		idx = keep
		if !progressed {
			for _, i := range idx {
				rates[i] = perWeight * flows[i].Weight
			}
			break
		}
	}
	s.idx = idx[:0]
	return rates
}
