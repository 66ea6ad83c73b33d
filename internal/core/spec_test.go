package core

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// TestPolicySpecRoundTrip: every shipped policy ParsePolicy can name parses
// back from its Name to an equal policy, and what it cannot build is an
// error, never a policy that panics in Arbitrate.
func TestPolicySpecRoundTrip(t *testing.T) {
	m := &PerfModel{FSBandwidth: 1 << 30, ProcNIC: 1 << 20}
	pols := []Policy{FCFSPolicy{}, InterruptPolicy{}, InterferePolicy{}}
	for _, overlap := range []float64{0, 0.25, 0.5, 1, 0.333, 1e-3} {
		pols = append(pols, DelayPolicy{Overlap: overlap, Model: m})
	}
	for _, quantum := range []float64{0.5, 2000, 0.333, 1e-3} {
		pols = append(pols, FairSharePolicy{Quantum: quantum})
	}
	for _, metric := range []Metric{CPUSecondsWasted{}, SumIOTime{}, SumInterferenceFactors{Model: m}, Makespan{}} {
		pols = append(pols, DynamicPolicy{Metric: metric, Model: m, AllowInterfere: true})
	}
	for pol, name := range map[Policy]string{
		pols[3]: "delay(0.00)", pols[5]: "delay(0.50)", pols[7]: "delay(0.333)", pols[8]: "delay(0.001)",
		pols[9]: "fairshare(0.50)", pols[10]: "fairshare(2000.00)",
	} {
		if pol.Name() != name {
			t.Errorf("%#v names itself %s, want %s", pol, pol.Name(), name)
		}
	}
	for _, want := range pols {
		got, err := ParsePolicy(want.Name(), m)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s parses to %#v, %v; want %#v", want.Name(), got, err, want)
		}
		_, err = ParsePolicy(want.Name(), nil)
		if needsModel(want) && !errors.Is(err, ErrNeedsModel) || !needsModel(want) && err != nil {
			t.Errorf("%s without a model: %v", want.Name(), err)
		}
	}
	for _, spec := range []string{"", "FCFS", "fcfs(1)", " fcfs", "delay", "delay()", "delay(-1)", "delay(NaN)",
		"delay(x)", "delay(0.5", "delay(0.5))", "dynamic", "dynamic(nonesuch)", "dynamic(cpu-seconds", "priority", "fairshare",
		"fairshare(0)", "fairshare(-1)", "fairshare(+Inf)", "fairshare(NaN)"} {
		if p, err := ParsePolicy(spec, m); err == nil || !strings.Contains(err.Error(), PolicySpecs) {
			t.Errorf("%q parses to %v, %v; want an error listing the accepted forms", spec, p, err)
		}
	}
}

// needsModel reports whether a shipped policy estimates with a model.
func needsModel(p Policy) bool {
	switch p.(type) {
	case DelayPolicy, DynamicPolicy:
		return true
	}
	return false
}

// FuzzParsePolicy: the parser never panics, and a spec it accepts names a
// policy whose Name parses back to an equal policy.
func FuzzParsePolicy(f *testing.F) {
	for _, spec := range []string{"fcfs", "interrupt", "interfere", "delay(0.50)", "delay(1e-3)", "delay(+Inf)",
		"delay(-0)", "dynamic(cpu-seconds)", "dynamic(makespan)", "fcfs(1)", "delay(", "dynamic()",
		"delay(0.333)", "fairshare(0.50)", "fairshare(1e-3)"} {
		f.Add(spec)
	}
	m := &PerfModel{FSBandwidth: 1 << 30, ProcNIC: 1 << 20}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePolicy(spec, m)
		if err != nil {
			return
		}
		again, err := ParsePolicy(p.Name(), m)
		if err != nil || !reflect.DeepEqual(again, p) {
			t.Fatalf("%q names %s, which parses to %#v, %v; want %#v", spec, p.Name(), again, err, p)
		}
	})
}
