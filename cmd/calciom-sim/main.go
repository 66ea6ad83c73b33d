// Command calciom-sim executes one two-application scenario and narrates it:
// the event timeline, every CALCioM arbitration decision, and the final
// per-application outcome. Useful for understanding what a policy actually
// does at a given dt.
//
// Example:
//
//	calciom-sim -platform surveyor -policy dynamic -dt 5
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"repro/internal/delta"
	"repro/internal/experiments"
	"repro/internal/ior"
	"repro/internal/metrics"
	"repro/internal/timeline"
)

const miB = int64(1) << 20

func main() {
	platform := flag.String("platform", "surveyor", "platform: rennes | nancy | surveyor")
	policy := flag.String("policy", "dynamic", "policy: "+delta.PolicyNames)
	dt := flag.Float64("dt", 5, "start offset of application B (seconds)")
	procs := flag.Int("procs", 2048, "processes per application")
	filesA := flag.Int("files-a", 4, "files written by A")
	filesB := flag.Int("files-b", 1, "files written by B")
	mibPerProc := flag.Int64("mib-per-proc", 4, "MiB per process per file")
	flag.Parse()
	if err := checkOffset(*dt); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	sc, nodes, ok := experiments.PlatformByName(*platform)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown platform %q\n", *platform)
		os.Exit(2)
	}
	mk := func(files int) ior.Workload {
		return ior.Workload{
			Pattern:       ior.Contiguous,
			BlockSize:     *mibPerProc * miB,
			BlocksPerProc: 1,
			Files:         files,
			ReqBytes:      miB,
		}
	}
	sc.Apps = []delta.AppSpec{
		{Name: "A", Procs: *procs, Nodes: nodes(*procs), W: mk(*filesA), Gran: ior.PerRound},
		{Name: "B", Procs: *procs, Nodes: nodes(*procs), W: mk(*filesB), Gran: ior.PerRound},
	}

	factory, ok := delta.PolicyByName(*policy)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}

	soloA, soloB := sc.Solo(0), sc.Solo(1)
	fmt.Printf("scenario: %s, 2x%d procs; A: %d files, B: %d files, %d MiB/proc\n",
		sc.Name, *procs, *filesA, *filesB, *mibPerProc)
	fmt.Printf("solo times: A=%.3fs B=%.3fs; dt=%.2fs; policy=%s\n\n", soloA, soloB, *dt, *policy)

	starts := []float64{0, *dt}
	if *dt < 0 {
		starts = []float64{-*dt, 0}
	}
	rec := &timeline.Recorder{}
	res := sc.RunWithTimeline(factory, starts, rec)

	if len(res.Decisions) > 0 {
		fmt.Println("arbitration decisions:")
		for _, d := range res.Decisions {
			fmt.Printf("  t=%8.3f  allowed=%-8v  %s\n", d.Time, d.Allowed, d.Reason)
		}
		fmt.Println()
	}

	rep := metrics.Report{Apps: []metrics.AppResult{
		{Name: "A", Cores: *procs, IOTime: res.IOTime[0], AloneTime: soloA},
		{Name: "B", Cores: *procs, IOTime: res.IOTime[1], AloneTime: soloB},
	}}
	fmt.Println("outcome:")
	fmt.Println(rep)
	fmt.Printf("makespan: %.3fs\n", res.Makespan)
	for i, st := range res.Stats {
		for p, ph := range st.Phases {
			fmt.Printf("  %s phase %d: start=%.3f end=%.3f comm=%.3f write=%.3f (%.1f MiB/s)\n",
				sc.Apps[i].Name, p, ph.Start, ph.End, ph.CommTime, ph.WriteTime,
				ph.Throughput()/float64(miB))
		}
	}
	fmt.Println()
	fmt.Print(rec.Gantt(90))
}

// checkOffset rejects a start offset the engine cannot schedule: NaN has no
// time, and an infinite one never arrives.
func checkOffset(dt float64) error {
	if math.IsNaN(dt) || math.IsInf(dt, 0) {
		return fmt.Errorf("-dt must be finite, got %v", dt)
	}
	return nil
}
