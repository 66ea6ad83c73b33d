package core

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
func (f FairSharePolicy) Name() string { return "fairshare(" + specFloat(f.Quantum) + ")" }

// Arbitrate implements Policy. Consumed service is approximated by the
// progress each application has reported (bytes done): the app with the
// least progress fraction, the first by name among equals, is served next.
func (f FairSharePolicy) Arbitrate(now float64, apps []AppView, allowed []bool, _ *Scratch) (Reason, float64) {
	least, leastFrac := -1, 0.0
	for i := range apps {
		a := &apps[i]
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
