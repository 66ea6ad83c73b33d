package delta_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/experiments"
	"repro/internal/ior"
	"repro/internal/pfs"
)

// bitsScenario is the benchmark's sim-sweep scenario: two 2048-process
// applications on Surveyor under the explicit-fabric model.
func bitsScenario() delta.Scenario {
	sc := experiments.SurveyorPlatform()
	sc.TrueNetwork = true
	w := ior.Workload{Pattern: ior.Contiguous, BlockSize: 32 << 20, BlocksPerProc: 1, ReqBytes: 4 << 20}
	sc.Apps = []delta.AppSpec{
		{Name: "A", Procs: 2048, Nodes: 512, W: w, Gran: ior.PerRound},
		{Name: "B", Procs: 2048, Nodes: 512, W: w, Gran: ior.PerRound},
	}
	return sc
}

// seriesBits renders a Series to the bit: the solo times in %x and one
// fnv64a over the IEEE bits of every per-offset entry, column by column.
func seriesBits(label string, s *delta.Series) string {
	h := fnv.New64a()
	var b [8]byte
	for _, col := range [][]float64{s.TimeA, s.TimeB, s.FactorA, s.FactorB, s.CPUPerCore} {
		for _, v := range col {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%-18s policy=%-13s points=%d soloA=%x soloB=%x fnv64a=%016x\n",
		label, s.Policy, len(s.DT), s.SoloA, s.SoloB, h.Sum64())
}

// TestSweepBitsGolden pins every bit of the ∆-sweeps the benchmark's
// sim-sweep workload runs, under each coordination family, and of an fcfs
// sweep with FIFO server scheduling, whose flows start from completion
// callbacks outside any fabric Hold. The figures print rounded values and
// the benchmark's gate compares a build only with itself, so this is what
// holds a solver or engine change to the previous build's numbers.
func TestSweepBitsGolden(t *testing.T) {
	dts := make([]float64, 49)
	for i := range dts {
		dts[i] = float64(i - 24)
	}
	fifo := bitsScenario()
	fifo.FS.Policy = pfs.FIFO
	cases := []struct {
		label   string
		sc      delta.Scenario
		factory delta.PolicyFactory
	}{
		{"uncoordinated", bitsScenario(), delta.Uncoordinated},
		{"fcfs", bitsScenario(), delta.FCFS},
		{"interrupt", bitsScenario(), delta.Interrupt},
		{"delay(0.50)", bitsScenario(), delta.Delay(0.5)},
		{"dynamic(cpu-s)", bitsScenario(), delta.Dynamic(core.CPUSecondsWasted{}, false)},
		{"fcfs/fifo-servers", fifo, delta.FCFS},
	}
	var sb strings.Builder
	for _, c := range cases {
		s := c.sc.Sweep(c.factory, dts)
		sb.WriteString(seriesBits(c.label, &s))
	}
	got := sb.String()
	path := filepath.Join("testdata", "sweep_bits.golden")
	if *delta.UpdateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("sweep bits differ from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
