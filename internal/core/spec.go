package core

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// PolicySpecs is the grammar ParsePolicy accepts, for help texts and errors.
const PolicySpecs = "fcfs|interrupt|interfere|delay(F)|dynamic(M)|fairshare(Q), F >= 0, M one of cpu-seconds|sum-io-time|sum-interference|makespan, Q > 0 seconds"

// ErrNeedsModel is ParsePolicy's error for a model policy given no model.
var ErrNeedsModel = errors.New("needs a performance model")

// ParsePolicy builds the policy a spec names under the model m: the one
// place a policy name becomes a policy. A spec is what the policy's Name
// prints — fcfs, interrupt, interfere, delay(F) with F the overlap,
// dynamic(M) with M the metric, interfering among its candidates, or
// fairshare(Q) with Q the finite quantum in seconds — so Name parses back
// to an equal policy. delay and dynamic given a nil m fail with
// ErrNeedsModel, any other spec with the accepted forms; callers resolve
// their own aliases first.
func ParsePolicy(spec string, m *PerfModel) (Policy, error) {
	for _, p := range []Policy{FCFSPolicy{}, InterruptPolicy{}, InterferePolicy{}} {
		if p.Name() == spec {
			return p, nil
		}
	}
	var p Policy
	name, arg, _ := strings.Cut(strings.TrimSuffix(spec, ")"), "(")
	switch {
	case !strings.HasSuffix(spec, ")"):
	case name == "fairshare":
		if q, err := strconv.ParseFloat(arg, 64); err == nil && q > 0 && !math.IsInf(q, 1) {
			return FairSharePolicy{Quantum: q}, nil
		}
	case name == "delay":
		if f, err := strconv.ParseFloat(arg, 64); err == nil && f >= 0 {
			p = DelayPolicy{Overlap: f, Model: m}
		}
	case name == "dynamic":
		for _, metric := range []Metric{CPUSecondsWasted{}, SumIOTime{}, SumInterferenceFactors{Model: m}, Makespan{}} {
			if metric.Name() == arg {
				p = DynamicPolicy{Metric: metric, Model: m, AllowInterfere: true}
			}
		}
	}
	if p == nil {
		return nil, fmt.Errorf("unknown policy %q (want %s)", spec, PolicySpecs)
	}
	if m == nil {
		return nil, fmt.Errorf("policy %q %w", spec, ErrNeedsModel)
	}
	return p, nil
}

// specFloat formats a policy parameter for its Name: two decimals, or as
// many as it takes for ParsePolicy to read back the same value.
func specFloat(f float64) string {
	s := strconv.FormatFloat(f, 'f', 2, 64)
	if back, _ := strconv.ParseFloat(s, 64); back == f {
		return s
	}
	return strconv.FormatFloat(f, 'f', -1, 64)
}
