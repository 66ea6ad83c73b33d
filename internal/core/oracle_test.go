package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fluid"
)

// The decisions of DynamicPolicy and FairSharePolicy as they were taken
// before the two decided in place — a candidate slice,
// fresh orders and times per candidate, an Allowed map and an eagerly
// formatted reason per decision — kept verbatim as the oracle the
// differential test holds Policy.Arbitrate to, Allowed and wording both.

// decision is a policy's outcome read back by name: the form the oracles
// decide in, and how a test asks one policy directly (see decide).
type decision struct {
	Allowed      map[string]bool // authorized names; missing ones are not
	RecheckAfter float64
	Reason       Reason
}

// allowAll authorizes every listed app.
func allowAll(apps []AppView, reason string) decision {
	d := decision{Allowed: make(map[string]bool, len(apps)), Reason: TextReason(reason)}
	for _, a := range apps {
		d.Allowed[a.Name] = true
	}
	return d
}

// allowOnly authorizes exactly one app.
func allowOnly(name, reason string) decision {
	return decision{Allowed: map[string]bool{name: true}, Reason: TextReason(reason)}
}

// decide asks p for one decision in a scratch of its own and reads it back
// by name.
func decide(p Policy, now float64, apps []AppView) decision {
	allowed := make([]bool, len(apps))
	reason, recheck := p.Arbitrate(now, apps, allowed, new(Scratch))
	dec := decision{Allowed: make(map[string]bool, len(apps)), RecheckAfter: recheck, Reason: reason}
	for i, ok := range allowed {
		if ok {
			dec.Allowed[apps[i].Name] = true
		}
	}
	return dec
}

// oracleDecision is the old Policy.Arbitrate of p; ok is false for the
// policies whose indexed form is older than this file.
func oracleDecision(p Policy, now float64, apps []AppView) (dec decision, ok bool) {
	switch p := p.(type) {
	case DynamicPolicy:
		return oracleDynamic(p, now, apps), true
	case FairSharePolicy:
		return oracleFairShare(p, now, apps), true
	}
	return decision{}, false
}

func oracleSharedFinishTimes(m *PerfModel, apps []AppView) []float64 {
	flows := make([]fluid.Flow, len(apps))
	for i, a := range apps {
		inj := float64(a.Cores) * m.ProcNIC
		flows[i] = fluid.Flow{Work: a.Remaining(), Weight: float64(a.Cores), Cap: inj}
	}
	return fluid.FinishTimes(m.FSBandwidth, flows)
}

func oracleDynamic(d DynamicPolicy, now float64, apps []AppView) decision {
	if len(apps) == 1 {
		return allowAll(apps, "single application")
	}

	type candidate struct {
		name    string
		decide  func() decision
		ioTimes []float64
	}
	var cands []candidate

	// Serial schedules: finish times accumulate in queue order.
	serialTimes := func(order []int) []float64 {
		times := make([]float64, len(apps))
		acc := 0.0
		for _, i := range order {
			acc += d.Model.SoloTime(&apps[i], apps[i].Remaining())
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
		decide: func() decision {
			head := apps[continueOrder[0]].Name
			return allowOnly(head, "dynamic: serialize after "+head)
		},
	})

	if len(waiters) > 1 {
		sjf := append([]int{}, actives...)
		ws := append([]int{}, waiters...)
		sort.Slice(ws, func(a, b int) bool {
			ta := d.Model.SoloTime(&apps[ws[a]], apps[ws[a]].Remaining())
			tb := d.Model.SoloTime(&apps[ws[b]], apps[ws[b]].Remaining())
			if ta != tb {
				return ta < tb
			}
			return apps[ws[a]].Name < apps[ws[b]].Name
		})
		sjf = append(sjf, ws...)
		cands = append(cands, candidate{
			name:    "sjf",
			ioTimes: serialTimes(sjf),
			decide: func() decision {
				head := apps[sjf[0]].Name
				return allowOnly(head, "dynamic: shortest job first ("+head+")")
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
			decide: func() decision {
				return allowOnly(apps[newest].Name, "dynamic: interrupt for newcomer")
			},
		})
	}

	if d.AllowInterfere {
		cands = append(cands, candidate{
			name:    "interfere",
			ioTimes: oracleSharedFinishTimes(d.Model, apps),
			decide: func() decision {
				return allowAll(apps, "dynamic: interference is cheap")
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

func oracleFairShare(f FairSharePolicy, now float64, apps []AppView) decision {
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
	dec := allowOnly(cands[0].name, fmt.Sprintf("least served (%.0f%% done)", 100*cands[0].frac))
	if len(apps) > 1 {
		dec.RecheckAfter = q
	}
	return dec
}
