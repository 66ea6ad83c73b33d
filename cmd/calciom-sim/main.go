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
	"io"
	"math"
	"os"

	"repro/internal/delta"
	"repro/internal/experiments"
	"repro/internal/ior"
	"repro/internal/metrics"
	"repro/internal/timeline"
)

const miB = int64(1) << 20

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it narrates the run to stdout and returns the exit
// status, 2 for any error — every one is the command line's.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calciom-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	platform := fs.String("platform", "surveyor", "platform: rennes | nancy | surveyor")
	policy := fs.String("policy", "dynamic", "policy: "+delta.PolicyNames+", or a core.ParsePolicy spec such as dynamic(makespan) or fairshare(0.50)")
	dt := fs.Float64("dt", 5, "start offset of application B (seconds)")
	procs := fs.Int("procs", 2048, "processes per application")
	filesA := fs.Int("files-a", 4, "files written by A")
	filesB := fs.Int("files-b", 1, "files written by B")
	mibPerProc := fs.Int64("mib-per-proc", 4, "MiB per process per file")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	if err := checkOffset(*dt); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	sc, nodes, ok := experiments.PlatformByName(*platform)
	if !ok {
		fmt.Fprintf(stderr, "unknown platform %q\n", *platform)
		return 2
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
		fmt.Fprintf(stderr, "unknown policy %q\n", *policy)
		return 2
	}

	soloA, soloB := sc.Solo(0), sc.Solo(1)
	fmt.Fprintf(stdout, "scenario: %s, 2x%d procs; A: %d files, B: %d files, %d MiB/proc\n",
		sc.Name, *procs, *filesA, *filesB, *mibPerProc)
	fmt.Fprintf(stdout, "solo times: A=%.3fs B=%.3fs; dt=%.2fs; policy=%s\n\n", soloA, soloB, *dt, *policy)

	starts := []float64{0, *dt}
	if *dt < 0 {
		starts = []float64{-*dt, 0}
	}
	rec := &timeline.Recorder{}
	res := sc.RunWithTimeline(factory, starts, rec)

	if len(res.Decisions) > 0 {
		fmt.Fprintln(stdout, "arbitration decisions:")
		for _, d := range res.Decisions {
			fmt.Fprintf(stdout, "  t=%8.3f  allowed=%-8v  %s\n", d.Time, d.Allowed, d.Reason)
		}
		fmt.Fprintln(stdout)
	}

	rep := metrics.Report{Apps: []metrics.AppResult{
		{Name: "A", Cores: *procs, IOTime: res.IOTime[0], AloneTime: soloA},
		{Name: "B", Cores: *procs, IOTime: res.IOTime[1], AloneTime: soloB},
	}}
	fmt.Fprintln(stdout, "outcome:")
	fmt.Fprintln(stdout, rep)
	fmt.Fprintf(stdout, "makespan: %.3fs\n", res.Makespan)
	for i, st := range res.Stats {
		for p, ph := range st.Phases {
			fmt.Fprintf(stdout, "  %s phase %d: start=%.3f end=%.3f comm=%.3f write=%.3f (%.1f MiB/s)\n",
				sc.Apps[i].Name, p, ph.Start, ph.End, ph.CommTime, ph.WriteTime,
				ph.Throughput()/float64(miB))
		}
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, rec.Gantt(90))
	return 0
}

// checkOffset rejects a start offset the engine cannot schedule: NaN has no
// time, and an infinite one never arrives.
func checkOffset(dt float64) error {
	if math.IsNaN(dt) || math.IsInf(dt, 0) {
		return fmt.Errorf("-dt must be finite, got %v", dt)
	}
	return nil
}
