package fluid

import "math"

// StaggeredFinishTimes generalizes FinishTimes to flows that start at
// different times: flow i becomes active at starts[i] and completes when its
// work is done under weighted max-min sharing with whoever else is active.
// It returns absolute finish times (same clock as starts).
//
// This is the "expected" interference model of the paper's ∆-graphs: two
// identical applications offset by dt sharing the file system
// proportionally. Repeated callers (∆-graph sweeps) should hold a Solver
// and use its method form, which reuses the per-step rating scratch.
func StaggeredFinishTimes(capacity float64, flows []Flow, starts []float64) []float64 {
	var s Solver
	return s.StaggeredFinishTimes(capacity, flows, starts)
}

// StaggeredFinishTimes is the scratch-reusing form of the package-level
// function. The returned slice is freshly allocated and owned by the caller.
//
// The algorithm steps from event to event — the earliest completion or the
// next arrival — because rates are constant between them; each step rates
// the active flows once. The flow whose completion ends a step finishes
// there even if rounding leaves it a sliver of work: near a late clock, a
// sliver's time can be below half an ulp of the clock, and no later step
// could drain it.
func (s *Solver) StaggeredFinishTimes(capacity float64, flows []Flow, starts []float64) []float64 {
	n := len(flows)
	if len(starts) != n {
		panic("fluid: starts length mismatch")
	}
	s.grow(n)
	finish := make([]float64, n)
	rem, arrived, active := s.rem, s.arrived, s.active
	for i, f := range flows {
		rem[i] = f.Work
		arrived[i] = false
		active[i] = false
		finish[i] = math.NaN()
	}

	now := math.Inf(1)
	for _, st := range starts {
		if st < now {
			now = st
		}
	}

	for {
		// Activate arrivals.
		for i := range flows {
			if !arrived[i] && starts[i] <= now {
				arrived[i] = true
				if rem[i] <= 0 {
					finish[i] = now
				} else {
					active[i] = true
				}
			}
		}
		// Done?
		allDone := true
		for i := range flows {
			if !arrived[i] || active[i] {
				allDone = false
				break
			}
		}
		if allDone {
			return finish
		}

		rates := s.rate(capacity, flows)

		// Next event: earliest completion or next arrival.
		next, soonest := math.Inf(1), -1
		for i := range flows {
			if active[i] && rates[i] > 0 {
				if t := now + rem[i]/rates[i]; t < next {
					next, soonest = t, i
				}
			}
		}
		for i := range flows {
			if !arrived[i] && starts[i] > now && starts[i] < next {
				next, soonest = starts[i], -1
			}
		}
		if math.IsInf(next, 1) {
			// Stalled flows can never finish.
			for i := range flows {
				if active[i] {
					finish[i] = math.Inf(1)
					active[i] = false
				}
			}
			// Remaining arrivals may still progress alone.
			stillArriving := false
			for i := range flows {
				if !arrived[i] {
					stillArriving = true
					if starts[i] > now {
						next = math.Min(next, starts[i])
					}
				}
			}
			if !stillArriving {
				return finish
			}
			now = next
			continue
		}

		dt := next - now
		for i := range flows {
			if active[i] {
				rem[i] -= rates[i] * dt
				if rem[i] <= rem0eps(flows[i].Work) || i == soonest {
					rem[i] = 0
					active[i] = false
					finish[i] = next
				}
			}
		}
		now = next
	}
}
