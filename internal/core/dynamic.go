package core

import (
	"math"
	"slices"
)

// PerfModel estimates I/O completion times from the information applications
// share. It deliberately uses only coarse, application-declarable quantities
// (remaining bytes, cores, injection limits), like the paper's closed-form
// decision in §IV-D.
type PerfModel struct {
	// FSBandwidth is the file system's aggregate sustained bandwidth.
	FSBandwidth float64
	// ProcNIC is the per-core injection bandwidth limit, used to estimate
	// solo bandwidth when an application does not declare one.
	ProcNIC float64
}

// AloneBW returns the app's estimated solo bandwidth.
func (m *PerfModel) AloneBW(v *AppView) float64 {
	if v.AloneBW > 0 {
		return v.AloneBW
	}
	inj := float64(v.Cores) * m.ProcNIC
	if inj <= 0 || inj > m.FSBandwidth {
		return m.FSBandwidth
	}
	return inj
}

// SoloTime estimates the time for the app to write `bytes` alone.
func (m *PerfModel) SoloTime(v *AppView, bytes float64) float64 {
	bw := m.AloneBW(v)
	if bw <= 0 {
		return math.Inf(1)
	}
	return bytes / bw
}

// Scratch is the working memory a model policy estimates in: one solo time
// per queued application, one schedule order and one set of finish times
// that every candidate is costed in one after another, and the order behind
// the interference estimate, sorted in place (sortShares: a typed insertion
// loop up to sortCutoff entries). It belongs to the Arbiter, which hands it to its
// policy on every Arbitrate call — not to the policy, a value that many
// Arbiters share and decide with concurrently. Nothing in it outlives
// the call or refers to the views, and the zero value is ready.
type Scratch struct {
	solo   []float64
	order  []int
	times  []float64
	shares []coreShare
}

// reserve sizes the scratch for n queued applications.
func (s *Scratch) reserve(n int) {
	s.solo, s.order = slices.Grow(s.solo, n), slices.Grow(s.order, n)
	s.times, s.shares = slices.Grow(s.times, n), slices.Grow(s.shares, n)
}

// coreShare is an application with bytes left, by index, and its bytes per
// core: the order sharedFinishTimes finishes them in (ties by index).
type coreShare struct {
	perCore float64
	i       int
}

// before reports whether a finishes before b. No perCore is NaN: bytes left
// are positive and cores at least 0, so it is positive or +Inf.
func (a coreShare) before(b coreShare) bool {
	return a.perCore < b.perCore || a.perCore == b.perCore && a.i < b.i
}

// sortCutoff is the length up to which the typed orders (sortShares,
// sortByRegistration) sort with an insertion loop of their own: pdqsort's
// insertion cutoff, below which slices.SortFunc insertion sorts too, only
// through an indirect comparator call per compare. Longer slices go to
// slices.SortFunc, so a deep queue still sorts in O(n log n).
const sortCutoff = 12

// sortShares orders shares by coreShare.before.
func sortShares(shares []coreShare) {
	if len(shares) > sortCutoff {
		slices.SortFunc(shares, func(a, b coreShare) int {
			if a.before(b) {
				return -1
			}
			if b.before(a) {
				return 1
			}
			return 0
		})
		return
	}
	for i := 1; i < len(shares); i++ {
		sh, j := shares[i], i
		for ; j > 0 && sh.before(shares[j-1]); j-- {
			shares[j] = shares[j-1]
		}
		shares[j] = sh
	}
}

// sharedFinishTimes estimates per-app completion times (from now) if all the
// given apps interfere, under the weighted max-min fluid model of the
// simulated servers: weight = cores, cap = cores × ProcNIC (none unless
// positive). Caps proportional to weights leave one rate per core for
// everybody still writing, min(ProcNIC, FSBandwidth / cores still writing),
// so applications finish in the order of their bytes per core and one pass
// over it replaces fluid.FinishTimes' max-min fill per completion (doc.go
// has the argument). Each step divides one application's bytes left by its
// own rate, the capped one spelled as AloneBW spells it: an application left
// writing alone gets exactly its SoloTime, and a cost that ties with a serial
// schedule's still ties. The result is s.times, valid until s is used again.
func (m *PerfModel) sharedFinishTimes(s *Scratch, apps []AppView) []float64 {
	s.times = slices.Grow(s.times[:0], len(apps))[:len(apps)]
	s.shares = s.shares[:0]
	writing := 0.0 // cores of the applications with bytes left
	for i := range apps {
		s.times[i] = 0
		if work := apps[i].Remaining(); work > 0 {
			cores := float64(max(apps[i].Cores, 0))
			s.shares = append(s.shares, coreShare{work / cores, i})
			writing += cores
		}
	}
	sortShares(s.shares)
	now, served := 0.0, 0.0 // served: bytes per core everybody still writing has written
	for k, sh := range s.shares {
		a := &apps[sh.i]
		cores := float64(a.Cores)
		rate := m.FSBandwidth / writing * cores
		if inj := cores * m.ProcNIC; inj > 0 && inj < rate {
			rate = inj
		}
		if math.IsInf(sh.perCore, 1) || !(rate > 0) {
			// A phase of unknown size, no cores or no bandwidth: neither this
			// application nor any after it in the order finishes.
			for _, rest := range s.shares[k:] {
				s.times[rest.i] = math.Inf(1)
			}
			break
		}
		now += max(a.Remaining()-cores*served, 0) / rate
		s.times[sh.i] = now
		served, writing = sh.perCore, writing-cores
	}
	return s.times
}

// Metric is a machine-wide efficiency objective: given the per-app estimated
// I/O-phase durations (from the decision instant to each app's completion,
// waiting included), it returns a cost to minimize.
type Metric interface {
	Name() string
	Cost(apps []AppView, ioTime []float64) float64
}

// CPUSecondsWasted is the paper's §IV-D metric: f = Σ_X N_X · T_X, the CPU
// time burned in I/O phases instead of computation.
type CPUSecondsWasted struct{}

// Name implements Metric.
func (CPUSecondsWasted) Name() string { return "cpu-seconds" }

// Cost implements Metric.
func (CPUSecondsWasted) Cost(apps []AppView, ioTime []float64) float64 {
	var f float64
	for i := range apps {
		f += float64(apps[i].Cores) * ioTime[i]
	}
	return f
}

// SumIOTime minimizes the plain sum of I/O times (cores ignored).
type SumIOTime struct{}

// Name implements Metric.
func (SumIOTime) Name() string { return "sum-io-time" }

// Cost implements Metric.
func (SumIOTime) Cost(apps []AppView, ioTime []float64) float64 {
	var f float64
	for _, t := range ioTime {
		f += t
	}
	return f
}

// SumInterferenceFactors approximates Σ I_X = Σ T_X / T_X(alone); favors
// protecting small applications from large ones (paper §III-A4).
type SumInterferenceFactors struct {
	Model *PerfModel
}

// Name implements Metric.
func (SumInterferenceFactors) Name() string { return "sum-interference" }

// Cost implements Metric.
func (s SumInterferenceFactors) Cost(apps []AppView, ioTime []float64) float64 {
	var f float64
	for i := range apps {
		a := &apps[i]
		solo := s.Model.SoloTime(a, a.Remaining())
		if solo <= 0 {
			continue
		}
		f += ioTime[i] / solo
	}
	return f
}

// Makespan minimizes the time until the last app finishes its I/O.
type Makespan struct{}

// Name implements Metric.
func (Makespan) Name() string { return "makespan" }

// Cost implements Metric.
func (Makespan) Cost(apps []AppView, ioTime []float64) float64 {
	var m float64
	for _, t := range ioTime {
		if t > m {
			m = t
		}
	}
	return m
}

// DynamicPolicy is CALCioM's adaptive strategy (§III-A4, §IV-D): at every
// arbitration it evaluates candidate schedules — interfere, FCFS order,
// interrupt order — under the estimation model and authorizes according to
// whichever minimizes the configured machine-wide metric.
type DynamicPolicy struct {
	Metric Metric
	Model  *PerfModel
	// AllowInterfere includes the "let them interfere" candidate; the
	// paper's §IV-D evaluation chooses only between FCFS and interruption,
	// so experiments can switch the third candidate off for parity.
	AllowInterfere bool
}

// Name implements Policy.
func (d DynamicPolicy) Name() string { return "dynamic(" + d.Metric.Name() + ")" }

// Arbitrate implements Policy. Candidate schedules are built around the
// applications currently writing, so a decision made earlier is not
// flip-flopped at every re-arbitration: serialize continues whoever is
// writing and queues the waiters by arrival; shortest-job-first (with several
// waiters) queues them by remaining solo time instead — the paper's "choose a
// place in the queue" generalization, which minimizes the summed waiting that
// metrics like CPU-seconds reward; interrupt (a holder and a waiter) promotes
// the newest waiter ahead of the holder; interfere lets everybody go. Each is
// costed in turn in the scratch's one order and one set of times, the first
// of the cheapest wins, and only the winner marks allowed.
func (d DynamicPolicy) Arbitrate(now float64, apps []AppView, allowed []bool, s *Scratch) (Reason, float64) {
	if len(apps) == 1 {
		allowed[0] = true
		return TextReason("single application"), 0
	}

	// The holders, then the waiters, both by arrival as the views are: the
	// serialize schedule, which the other two reorder in place.
	s.solo, s.order = s.solo[:0], s.order[:0]
	for i := range apps {
		a := &apps[i]
		s.solo = append(s.solo, d.Model.SoloTime(a, a.Remaining()))
		if a.State == Active {
			s.order = append(s.order, i)
		}
	}
	actives := len(s.order)
	for i := range apps {
		if apps[i].State != Active {
			s.order = append(s.order, i)
		}
	}
	waiters := s.order[actives:]
	newest := s.order[len(s.order)-1] // the newest waiter, if anybody waits

	// Should no candidate have a finite cost (nothing declared, or a model
	// without bandwidth), serialize stands: it is what fcfs would do.
	kind, head, bestCost := reasonDynSerialize, s.order[0], math.Inf(1)
	if cost := d.serialCost(apps, s); cost < bestCost {
		bestCost = cost
	}
	if len(waiters) > 1 {
		for i := 1; i < len(waiters); i++ { // by (solo time, name)
			for j := i; j > 0; j-- {
				a, b := waiters[j-1], waiters[j]
				if s.solo[a] < s.solo[b] || s.solo[a] == s.solo[b] && apps[a].Name < apps[b].Name {
					break
				}
				waiters[j-1], waiters[j] = b, a
			}
		}
		if cost := d.serialCost(apps, s); cost < bestCost {
			kind, head, bestCost = reasonDynSJF, s.order[0], cost
		}
	}
	if len(waiters) > 0 && actives > 0 {
		// The newcomer, then the holders and the other waiters by arrival.
		s.order = append(s.order[:0], newest)
		for i := range apps {
			if apps[i].State == Active {
				s.order = append(s.order, i)
			}
		}
		for i := range apps {
			if apps[i].State != Active && i != newest {
				s.order = append(s.order, i)
			}
		}
		if cost := d.serialCost(apps, s); cost < bestCost {
			kind, head, bestCost = reasonDynInterrupt, newest, cost
		}
	}
	if d.AllowInterfere {
		if cost := d.Metric.Cost(apps, d.Model.sharedFinishTimes(s, apps)); cost < bestCost {
			for i := range allowed {
				allowed[i] = true
			}
			return dynamicReason(reasonDynInterfere, "", cost, d.Metric.Name()), 0
		}
	}
	allowed[head] = true
	return dynamicReason(kind, apps[head].Name, bestCost, d.Metric.Name()), 0
}

// serialCost costs the schedule that runs the applications one after another
// in s.order: finish times accumulate along it.
func (d DynamicPolicy) serialCost(apps []AppView, s *Scratch) float64 {
	s.times = slices.Grow(s.times[:0], len(apps))
	times := s.times[:len(apps)]
	acc := 0.0
	for _, i := range s.order {
		acc += s.solo[i]
		times[i] = acc
	}
	return d.Metric.Cost(apps, times)
}
