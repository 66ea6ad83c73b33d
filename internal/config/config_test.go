package config

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/delta"
	"repro/internal/experiments"
	"repro/internal/ior"
	"repro/internal/pfs"
)

const sample = `{
  "name": "test",
  "fs": {"servers": 4, "stripe_kib": 64, "server_mibps": 100},
  "proc_nic_mibps": 4,
  "comm_mibps_per_proc": 2,
  "coord_latency_s": 0.001,
  "apps": [
    {"name": "A", "procs": 32, "granularity": "round",
     "workload": {"pattern": "contiguous", "block_mib": 8, "blocks_per_proc": 1, "req_mib": 2}},
    {"name": "B", "procs": 8,
     "workload": {"pattern": "strided", "block_mib": 2, "blocks_per_proc": 4,
                  "cb_buf_mib": 16, "access": "read"}}
  ]
}`

func TestParseValid(t *testing.T) {
	sc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "test" || sc.FS.Servers != 4 {
		t.Fatalf("scenario = %+v", sc)
	}
	if sc.FS.StripeBytes != 64<<10 || sc.FS.ServerBW != 100*float64(1<<20) {
		t.Fatalf("fs units wrong: %+v", sc.FS)
	}
	if len(sc.Apps) != 2 {
		t.Fatalf("apps = %d", len(sc.Apps))
	}
	a := sc.Apps[0]
	if a.W.Pattern != ior.Contiguous || a.W.BlockSize != 8<<20 || a.Gran != ior.PerRound {
		t.Fatalf("app A = %+v", a)
	}
	b := sc.Apps[1]
	if b.W.Pattern != ior.Strided || b.W.Access != ior.ReadAccess {
		t.Fatalf("app B = %+v", b)
	}
}

func TestParsedScenarioRuns(t *testing.T) {
	sc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	res := sc.Run(delta.FCFS, []float64{0, 1})
	if res.IOTime[0] <= 0 || res.IOTime[1] <= 0 {
		t.Fatalf("run produced no I/O: %+v", res.IOTime)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":   `{"name":"x","bogus":1}`,
		"no apps":         `{"name":"x","fs":{"servers":1,"stripe_kib":64,"server_mibps":10},"proc_nic_mibps":1,"apps":[]}`,
		"bad pattern":     `{"name":"x","fs":{"servers":1,"stripe_kib":64,"server_mibps":10},"proc_nic_mibps":1,"apps":[{"name":"a","procs":1,"workload":{"pattern":"zig","block_mib":1,"blocks_per_proc":1}}]}`,
		"bad granularity": `{"name":"x","fs":{"servers":1,"stripe_kib":64,"server_mibps":10},"proc_nic_mibps":1,"apps":[{"name":"a","procs":1,"granularity":"nano","workload":{"block_mib":1,"blocks_per_proc":1}}]}`,
		"bad access":      `{"name":"x","fs":{"servers":1,"stripe_kib":64,"server_mibps":10},"proc_nic_mibps":1,"apps":[{"name":"a","procs":1,"workload":{"block_mib":1,"blocks_per_proc":1,"access":"scan"}}]}`,
		"zero nic":        `{"name":"x","fs":{"servers":1,"stripe_kib":64,"server_mibps":10},"apps":[{"name":"a","procs":1,"workload":{"block_mib":1,"blocks_per_proc":1}}]}`,
		"bad fs policy":   `{"name":"x","fs":{"servers":1,"stripe_kib":64,"server_mibps":10,"policy":"rand"},"proc_nic_mibps":1,"apps":[{"name":"a","procs":1,"workload":{"block_mib":1,"blocks_per_proc":1}}]}`,
		"zero procs":      `{"name":"x","fs":{"servers":1,"stripe_kib":64,"server_mibps":10},"proc_nic_mibps":1,"apps":[{"name":"a","procs":0,"workload":{"block_mib":1,"blocks_per_proc":1}}]}`,
		"zero block":      `{"name":"x","fs":{"servers":1,"stripe_kib":64,"server_mibps":10},"proc_nic_mibps":1,"apps":[{"name":"a","procs":1,"workload":{"block_mib":0,"blocks_per_proc":1}}]}`,
	}
	for name, in := range cases {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestFSPolicyParsing(t *testing.T) {
	for in, want := range map[string]pfs.SchedPolicy{
		"": pfs.Share, "share": pfs.Share, "fifo": pfs.FIFO, "exclusive": pfs.Exclusive,
	} {
		got, err := parseFSPolicy(in)
		if err != nil || got != want {
			t.Fatalf("parseFSPolicy(%q) = %v, %v", in, got, err)
		}
	}
}

func TestDumpRoundTrip(t *testing.T) {
	s := Scenario{
		Name:         "rt",
		FS:           FS{Servers: 2, StripeKiB: 64, ServerMiBps: 10},
		ProcNICMiBps: 1,
		Apps: []App{{
			Name: "a", Procs: 4,
			Workload: Workload{Pattern: "contiguous", BlockMiB: 1, BlocksPerProc: 1},
		}},
	}
	var buf bytes.Buffer
	if err := Dump(&buf, s); err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "rt" || len(sc.Apps) != 1 {
		t.Fatalf("round trip lost data: %+v", sc)
	}
}

// TestExampleScenarioIsTheFabricPair holds examples/scenario.json — the file
// calciom-delta's -config help points at — to the scenario it claims to be:
// bench_test.go's fabricPairScenario, two 2048-process applications on
// Surveyor under the explicit-fabric model.
func TestExampleScenarioIsTheFabricPair(t *testing.T) {
	got, err := Load("../../examples/scenario.json")
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.SurveyorPlatform()
	want.TrueNetwork = true
	w := ior.Workload{Pattern: ior.Contiguous, BlockSize: 32 << 20, BlocksPerProc: 1, ReqBytes: 4 << 20}
	want.Apps = []delta.AppSpec{
		{Name: "A", Procs: 2048, Nodes: 512, W: w, Gran: ior.PerRound},
		{Name: "B", Procs: 2048, Nodes: 512, W: w, Gran: ior.PerRound},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("examples/scenario.json is\n%+v\nwant\n%+v", got, want)
	}
}
