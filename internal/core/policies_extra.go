package core

// PriorityPolicy authorizes the waiting application with the highest
// operator-assigned priority; ties fall back to arrival order. Applications
// without an assigned priority default to zero. This models a
// system-provided entity enforcing site policy (the centralized variant the
// paper's §III-B leaves open).
type PriorityPolicy struct {
	// Priorities maps application name -> priority (higher wins).
	Priorities map[string]int
}

// Name implements Policy.
func (PriorityPolicy) Name() string { return "priority" }

// Arbitrate implements Policy.
func (p PriorityPolicy) Arbitrate(now float64, apps []AppView) Decision { return decide(p, now, apps) }

// ArbitrateIndexed implements IndexedArbitrator: the first of the highest
// priority, in arrival order as the views are.
func (p PriorityPolicy) ArbitrateIndexed(now float64, apps []AppView, allowed []bool, _ *Scratch) (Reason, float64) {
	best, bestPrio := 0, p.Priorities[apps[0].Name]
	for i, a := range apps[1:] {
		if prio := p.Priorities[a.Name]; prio > bestPrio {
			best, bestPrio = i+1, prio
		}
	}
	allowed[best] = true
	return Reason{kind: reasonPriority, v: float64(bestPrio)}, 0 // exact to 2^53
}

// FairSharePolicy time-slices the file system between the applications that
// want it: the app that has consumed the least I/O service so far gets the
// next quantum. This is the "fair sharing of throughput" strawman the
// paper's introduction argues against — each application gets the same
// quality of service, and machine-wide efficiency suffers; the experiments
// quantify by how much.
type FairSharePolicy struct {
	// Quantum is the re-arbitration period in seconds (default 1).
	Quantum float64
}

// Name implements Policy.
func (FairSharePolicy) Name() string { return "fairshare" }

// Arbitrate implements Policy.
func (f FairSharePolicy) Arbitrate(now float64, apps []AppView) Decision { return decide(f, now, apps) }

// ArbitrateIndexed implements IndexedArbitrator. Consumed service is
// approximated by the progress each application has reported (bytes done):
// the app with the least progress fraction, the first by name among equals,
// is served next.
func (f FairSharePolicy) ArbitrateIndexed(now float64, apps []AppView, allowed []bool, _ *Scratch) (Reason, float64) {
	least, leastFrac := -1, 0.0
	for i, a := range apps {
		frac := 0.0
		if a.BytesTotal > 0 {
			frac = a.BytesDone / a.BytesTotal
		}
		if least < 0 || frac < leastFrac || frac == leastFrac && a.Name < apps[least].Name {
			least, leastFrac = i, frac
		}
	}
	allowed[least] = true
	recheck := 0.0
	if len(apps) > 1 {
		if recheck = f.Quantum; recheck <= 0 {
			recheck = 1
		}
	}
	return Reason{kind: reasonLeastServed, v: 100 * leastFrac}, recheck
}
