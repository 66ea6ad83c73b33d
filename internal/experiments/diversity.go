package experiments

import (
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/ior"
	"repro/internal/platform"
)

// ExtensionDiversity reproduces the paper's §II-E motivation as a measured
// experiment: a CM1-like snapshot writer (23 MB/core every 3 minutes) and a
// NAMD-like trickle writer (tiny frequent outputs through 8 output procs)
// share the file system. A storage system that only sees raw requests
// treats them alike; CALCioM knows the CM1 bursts dwarf the NAMD trickles
// and the dynamic policy protects the trickler at negligible cost.
//
// Policy codes: 0=uncoordinated, 1=fcfs, 2=dynamic(sum-interference).
func ExtensionDiversity() *Table {
	t := &Table{
		ID:      "extension-diversity",
		Title:   "Workload diversity (§II-E): CM1-like bursts vs NAMD-like trickle",
		Columns: []string{"policy", "factorCM1", "factorNAMD", "sum_factors"},
		Notes: "CM1: 1024 cores, 23 MB/core snapshots every 180 s; NAMD: 1024 cores,\n" +
			"~KB/core per second through 8 output procs. policy: 0=uncoordinated\n" +
			"1=fcfs 2=dynamic(sumI)",
	}
	build := func() delta.Scenario {
		sc := SurveyorPlatform()
		sc.Apps = []delta.AppSpec{
			{Name: "cm1", Procs: 1024, Nodes: nodesFor(1024, SurveyorCoresPerNode),
				W: ior.CM1Workload(3), Gran: ior.PerRound},
			{Name: "namd", Procs: 1024, Nodes: nodesFor(1024, SurveyorCoresPerNode),
				W: ior.NAMDWorkload(300), Gran: ior.PerRound},
		}
		return sc
	}

	model := SurveyorPlatform().Model()
	policies := []struct {
		code    float64
		factory delta.PolicyFactory
	}{
		{0, delta.Uncoordinated},
		{1, delta.FCFS},
		{2, delta.Dynamic(core.SumInterferenceFactors{Model: model}, true)},
	}
	// The solo calibrations share one pool; the policy runs keep their own
	// platforms since each iteration runs a different policy family.
	calib := platform.NewPool()
	sc := build()
	soloCM1 := sc.SoloOn(calib, 0)
	soloNAMD := sc.SoloOn(calib, 1)
	for _, p := range policies {
		res := build().Run(p.factory, []float64{0, 0})
		fCM1 := res.IOTime[0] / soloCM1
		fNAMD := res.IOTime[1] / soloNAMD
		t.AddRow(p.code, fCM1, fNAMD, fCM1+fNAMD)
	}
	return t
}

// ExtensionFairShare quantifies the paper's introduction argument: "a fair
// sharing of throughput between two concurrent applications will lead to
// both applications being slowed down", whereas unfair serialization is
// better machine-wide. A fair-share time-slicing policy is compared with
// interference, FCFS and the dynamic policy on the Fig. 10 workload.
//
// Policy codes: 0=uncoordinated, 1=fairshare, 2=fcfs, 3=dynamic(cpu-s).
func ExtensionFairShare() *Table {
	t := &Table{
		ID:      "extension-fairshare",
		Title:   "Fair sharing vs machine-wide efficiency (Fig. 10 workload, dt=2)",
		Columns: []string{"policy", "timeA_s", "timeB_s", "percore_s"},
		Notes: "fairness equalizes progress and slows everyone; serializing is unfair\n" +
			"but machine-wide better. policy: 0=uncoordinated 1=fairshare 2=fcfs 3=dynamic",
	}
	fairshare, err := delta.Spec("fairshare(0.50)")
	if err != nil {
		panic(err) // a constant spec
	}
	policies := []struct {
		code    float64
		factory delta.PolicyFactory
	}{
		{0, delta.Uncoordinated},
		{1, fairshare},
		{2, delta.FCFS},
		{3, delta.Dynamic(core.CPUSecondsWasted{}, false)},
	}
	for _, p := range policies {
		sc := fig10Scenario(ior.PerRound)
		res := sc.Run(p.factory, []float64{0, 2})
		perCore := (2048*res.IOTime[0] + 2048*res.IOTime[1]) / 4096
		t.AddRow(p.code, res.IOTime[0], res.IOTime[1], perCore)
	}
	return t
}
