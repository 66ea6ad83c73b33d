package core

import (
	"fmt"
	"math"
)

// decide is Policy.Arbitrate for every policy of this package: they decide
// in ArbitrateIndexed, the path every Arbiter takes, and a caller asking one
// directly gets that same decision, taken in a scratch of its own, read back
// into a Decision.
func decide(p IndexedArbitrator, now float64, apps []AppView) Decision {
	allowed := make([]bool, len(apps))
	reason, recheck := p.ArbitrateIndexed(now, apps, allowed, new(Scratch))
	dec := Decision{Allowed: make(map[string]bool, len(apps)), RecheckAfter: recheck, Reason: reason}
	for i, ok := range allowed {
		if ok {
			dec.Allowed[apps[i].Name] = true
		}
	}
	return dec
}

// InterferePolicy lets every application access the file system at once:
// the uncoordinated baseline ("let them interfere").
type InterferePolicy struct{}

// Name implements Policy.
func (InterferePolicy) Name() string { return "interfere" }

// Arbitrate implements Policy.
func (p InterferePolicy) Arbitrate(now float64, apps []AppView) Decision { return decide(p, now, apps) }

// ArbitrateIndexed implements IndexedArbitrator: everyone is allowed.
func (InterferePolicy) ArbitrateIndexed(now float64, apps []AppView, allowed []bool, _ *Scratch) (Reason, float64) {
	for i := range allowed {
		allowed[i] = true
	}
	return TextReason("interference allowed"), 0
}

// FCFSPolicy serializes accesses first-come-first-served: the application
// whose I/O phase arrived first holds the file system until its phase ends;
// later arrivals wait (paper §III-A1, Fig. 5b).
type FCFSPolicy struct{}

// Name implements Policy.
func (FCFSPolicy) Name() string { return "fcfs" }

// Arbitrate implements Policy.
func (p FCFSPolicy) Arbitrate(now float64, apps []AppView) Decision { return decide(p, now, apps) }

// ArbitrateIndexed implements IndexedArbitrator: the earliest arrival —
// views arrive sorted by (arrival, name) — holds the file system.
func (FCFSPolicy) ArbitrateIndexed(now float64, apps []AppView, allowed []bool, _ *Scratch) (Reason, float64) {
	allowed[0] = true
	return Reason{kind: reasonFirst, s: apps[0].Name, v: apps[0].Arrival}, 0
}

// InterruptPolicy serializes in the opposite direction: the most recent
// arrival preempts whoever is accessing; the interrupted application resumes
// when the newcomer finishes (paper §III-A2, Fig. 5c). Preemption takes
// effect at the interrupted application's next coordination point.
type InterruptPolicy struct{}

// Name implements Policy.
func (InterruptPolicy) Name() string { return "interrupt" }

// Arbitrate implements Policy.
func (p InterruptPolicy) Arbitrate(now float64, apps []AppView) Decision { return decide(p, now, apps) }

// ArbitrateIndexed implements IndexedArbitrator: the newest arrival preempts.
func (InterruptPolicy) ArbitrateIndexed(now float64, apps []AppView, allowed []bool, _ *Scratch) (Reason, float64) {
	newest := len(apps) - 1
	allowed[newest] = true
	return Reason{kind: reasonLast, s: apps[newest].Name, v: apps[newest].Arrival}, 0
}

// DelayPolicy implements the Fig. 12 tradeoff: when interference is mild,
// full serialization wastes time, so a newcomer is merely delayed until the
// current holder's estimated remaining time drops below Overlap times the
// newcomer's own solo time, and then both are allowed to overlap.
//
// Overlap = 0 degenerates to FCFS; Overlap = +Inf to interference.
type DelayPolicy struct {
	Overlap float64    // fraction of the newcomer's solo time allowed to overlap
	Model   *PerfModel // estimation model (required)
}

// Name implements Policy.
func (d DelayPolicy) Name() string { return fmt.Sprintf("delay(%.2f)", d.Overlap) }

// Arbitrate implements Policy.
func (d DelayPolicy) Arbitrate(now float64, apps []AppView) Decision { return decide(d, now, apps) }

// ArbitrateIndexed implements IndexedArbitrator. The earliest arrival is the
// holder; later arrivals overlap only inside their allowed window.
func (d DelayPolicy) ArbitrateIndexed(now float64, apps []AppView, allowed []bool, _ *Scratch) (Reason, float64) {
	if d.Model == nil {
		panic("core: DelayPolicy needs a PerfModel")
	}
	allowed[0] = true
	if len(apps) == 1 {
		return TextReason("single application"), 0
	}
	holder := apps[0]
	remHold := d.Model.SoloTime(holder, holder.Remaining())
	recheck := math.Inf(1)
	for i, a := range apps[1:] {
		window := d.Overlap * d.Model.SoloTime(a, a.Remaining())
		if remHold <= window {
			allowed[i+1] = true
			continue
		}
		// Not yet: re-examine when the holder should be within range.
		if wait := remHold - window; wait < recheck {
			recheck = wait
		}
	}
	if math.IsInf(recheck, 1) || recheck <= 0 {
		recheck = 0
	}
	return Reason{kind: reasonHolding, s: holder.Name, v: remHold}, recheck
}
