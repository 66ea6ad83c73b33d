package fluid

import "math"

// Flow describes one flow for the closed-form solver.
type Flow struct {
	Work   float64 // units of work to complete
	Weight float64 // fairness weight (> 0)
	Cap    float64 // max rate, 0 = uncapped
}

// Solver computes closed-form finish times under weighted max-min sharing
// with caps, reusing its internal scratch across calls: the per-step rating
// allocates nothing after the first use at a given flow count. A Solver is
// not safe for concurrent use; its zero value is ready.
type Solver struct {
	share   share
	rates   []float64
	rem     []float64
	active  []bool
	arrived []bool
	rated   []int // the flows of the current step's share, in its order
}

// grow resizes the scratch for n flows, reusing capacity when possible.
func (s *Solver) grow(n int) {
	if cap(s.rates) < n {
		s.rates = make([]float64, n)
		s.rem = make([]float64, n)
		s.active = make([]bool, n)
		s.arrived = make([]bool, n)
		s.rated = make([]int, 0, n)
	}
	s.rates = s.rates[:n]
	s.rem = s.rem[:n]
	s.active = s.active[:n]
	s.arrived = s.arrived[:n]
}

// FinishTimes computes, analytically, when each flow completes if all flows
// start at t=0 on a resource of the given capacity under weighted max-min
// sharing with caps — the same allocation the simulated Resource makes. It
// returns one finish time per flow (math.Inf(1) if a flow can never finish:
// zero capacity and zero cap, or infinite work) in a freshly allocated slice
// the caller owns. It is StaggeredFinishTimes with every start at 0.
func (s *Solver) FinishTimes(capacity float64, flows []Flow) []float64 {
	return s.StaggeredFinishTimes(capacity, flows, make([]float64, len(flows)))
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

// rate sets s.rates to the max-min rates of the active flows with work left
// and a positive weight (0 for the others, as a weight of 0 earns nothing),
// rating them through the kernel as a Resource rates its jobs. It consumes
// s.rem and s.active as the current progress state.
func (s *Solver) rate(capacity float64, flows []Flow) []float64 {
	s.share.begin(capacity)
	rated := s.rated[:0]
	for i, f := range flows {
		s.rates[i] = 0
		if s.active[i] && s.rem[i] > 0 && f.Weight > 0 {
			rated = append(rated, i)
			s.share.add(f.Weight, f.Cap)
		}
	}
	for k, f := range s.share.fill() {
		s.rates[rated[k]] = f.Rate
	}
	s.rated = rated[:0]
	return s.rates
}
