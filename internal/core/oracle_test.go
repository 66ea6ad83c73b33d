package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fluid"
)

// The decisions of DynamicPolicy, PriorityPolicy and FairSharePolicy as they
// were taken before the three moved to the indexed path — a candidate slice,
// fresh orders and times per candidate, an Allowed map and an eagerly
// formatted reason per decision — kept verbatim as the oracle the
// differential test holds ArbitrateIndexed to, Allowed and wording both.

// oracleDecision is the old Policy.Arbitrate of p; ok is false for the
// policies whose indexed form is older than this file.
func oracleDecision(p Policy, now float64, apps []AppView) (dec Decision, ok bool) {
	switch p := p.(type) {
	case DynamicPolicy:
		return oracleDynamic(p, now, apps), true
	case PriorityPolicy:
		return oraclePriority(p, now, apps), true
	case FairSharePolicy:
		return oracleFairShare(p, now, apps), true
	}
	return Decision{}, false
}

func oracleSharedFinishTimes(m *PerfModel, apps []AppView) []float64 {
	flows := make([]fluid.Flow, len(apps))
	for i, a := range apps {
		inj := float64(a.Cores) * m.ProcNIC
		flows[i] = fluid.Flow{Work: a.Remaining(), Weight: float64(a.Cores), Cap: inj}
	}
	return fluid.FinishTimes(m.FSBandwidth, flows)
}

func oracleDynamic(d DynamicPolicy, now float64, apps []AppView) Decision {
	if len(apps) == 1 {
		return AllowAll(apps, "single application")
	}

	type candidate struct {
		name    string
		decide  func() Decision
		ioTimes []float64
	}
	var cands []candidate

	// Serial schedules: finish times accumulate in queue order.
	serialTimes := func(order []int) []float64 {
		times := make([]float64, len(apps))
		acc := 0.0
		for _, i := range order {
			acc += d.Model.SoloTime(apps[i], apps[i].Remaining())
			times[i] = acc
		}
		return times
	}

	var actives, waiters []int
	for i, a := range apps {
		if a.State == Active {
			actives = append(actives, i)
		} else {
			waiters = append(waiters, i)
		}
	}

	continueOrder := append(append([]int{}, actives...), waiters...)
	cands = append(cands, candidate{
		name:    "serialize",
		ioTimes: serialTimes(continueOrder),
		decide: func() Decision {
			head := apps[continueOrder[0]].Name
			return AllowOnly(head, "dynamic: serialize after "+head)
		},
	})

	if len(waiters) > 1 {
		sjf := append([]int{}, actives...)
		ws := append([]int{}, waiters...)
		sort.Slice(ws, func(a, b int) bool {
			ta := d.Model.SoloTime(apps[ws[a]], apps[ws[a]].Remaining())
			tb := d.Model.SoloTime(apps[ws[b]], apps[ws[b]].Remaining())
			if ta != tb {
				return ta < tb
			}
			return apps[ws[a]].Name < apps[ws[b]].Name
		})
		sjf = append(sjf, ws...)
		cands = append(cands, candidate{
			name:    "sjf",
			ioTimes: serialTimes(sjf),
			decide: func() Decision {
				head := apps[sjf[0]].Name
				return AllowOnly(head, "dynamic: shortest job first ("+head+")")
			},
		})
	}

	if len(waiters) > 0 && len(actives) > 0 {
		newest := waiters[len(waiters)-1]
		intOrder := []int{newest}
		intOrder = append(intOrder, actives...)
		for _, wi := range waiters {
			if wi != newest {
				intOrder = append(intOrder, wi)
			}
		}
		cands = append(cands, candidate{
			name:    "interrupt",
			ioTimes: serialTimes(intOrder),
			decide: func() Decision {
				return AllowOnly(apps[newest].Name, "dynamic: interrupt for newcomer")
			},
		})
	}

	if d.AllowInterfere {
		cands = append(cands, candidate{
			name:    "interfere",
			ioTimes: oracleSharedFinishTimes(d.Model, apps),
			decide: func() Decision {
				return AllowAll(apps, "dynamic: interference is cheap")
			},
		})
	}

	best, bestCost := -1, math.Inf(1)
	for i, c := range cands {
		cost := d.Metric.Cost(apps, c.ioTimes)
		if cost < bestCost {
			best, bestCost = i, cost
		}
	}
	dec := cands[best].decide()
	dec.Reason = TextReason(fmt.Sprintf("%s (cost %.4g by %s)", dec.Reason, bestCost, d.Metric.Name()))
	return dec
}

func oraclePriority(p PriorityPolicy, now float64, apps []AppView) Decision {
	best := apps[0]
	bestPrio := p.Priorities[best.Name]
	for _, a := range apps[1:] {
		if prio := p.Priorities[a.Name]; prio > bestPrio {
			best, bestPrio = a, prio
		}
	}
	return AllowOnly(best.Name, fmt.Sprintf("priority %d", bestPrio))
}

func oracleFairShare(f FairSharePolicy, now float64, apps []AppView) Decision {
	type cand struct {
		name string
		frac float64
	}
	cands := make([]cand, 0, len(apps))
	for _, a := range apps {
		frac := 0.0
		if a.BytesTotal > 0 {
			frac = a.BytesDone / a.BytesTotal
		}
		cands = append(cands, cand{a.Name, frac})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].frac != cands[j].frac {
			return cands[i].frac < cands[j].frac
		}
		return cands[i].name < cands[j].name
	})
	q := f.Quantum
	if q <= 0 {
		q = 1
	}
	dec := AllowOnly(cands[0].name, fmt.Sprintf("least served (%.0f%% done)", 100*cands[0].frac))
	if len(apps) > 1 {
		dec.RecheckAfter = q
	}
	return dec
}
