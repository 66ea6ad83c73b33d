package core

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/fluid"
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
func (m *PerfModel) AloneBW(v AppView) float64 {
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
func (m *PerfModel) SoloTime(v AppView, bytes float64) float64 {
	bw := m.AloneBW(v)
	if bw <= 0 {
		return math.Inf(1)
	}
	return bytes / bw
}

// SharedFinishTimes estimates per-app completion times (from now) if all
// the given apps interfere, using the same weighted max-min fluid model as
// the simulated servers: weight = cores (concurrent client streams), cap =
// injection limit.
func (m *PerfModel) SharedFinishTimes(apps []AppView) []float64 {
	flows := make([]fluid.Flow, len(apps))
	for i, a := range apps {
		inj := float64(a.Cores) * m.ProcNIC
		flows[i] = fluid.Flow{Work: a.Remaining(), Weight: float64(a.Cores), Cap: inj}
	}
	return fluid.FinishTimes(m.FSBandwidth, flows)
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
	for i, a := range apps {
		f += float64(a.Cores) * ioTime[i]
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
	for i, a := range apps {
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

// Arbitrate implements Policy.
func (d DynamicPolicy) Arbitrate(now float64, apps []AppView) Decision {
	if d.Model == nil || d.Metric == nil {
		panic("core: DynamicPolicy needs Model and Metric")
	}
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

	// Split into currently-active holders and waiters (both pre-sorted by
	// arrival). Candidate schedules are built around the holder so a
	// decision made earlier is not flip-flopped at every re-arbitration:
	// the serialize candidate continues whoever is writing, and the
	// interrupt candidate promotes the newest waiter ahead of it.
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
		// Shortest-remaining-first among the waiters (holders keep going):
		// with several applications queued, the paper's "choose a place in
		// the queue" generalization. SJF minimizes the sum of waiting
		// times, which metrics like CPU-seconds reward.
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
			ioTimes: d.Model.SharedFinishTimes(apps),
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
