// Command calciom-delta runs a custom two-application ∆-graph experiment:
// pick a platform, application sizes, a workload, and coordination policies,
// sweep the start offset dt, and print the measured I/O times as a table and
// an ASCII plot.
//
// Example:
//
//	calciom-delta -platform rennes -procs-a 744 -procs-b 24 \
//	    -mib-per-proc 16 -pattern strided -policies interfere,fcfs,interrupt
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/delta"
	"repro/internal/experiments"
	"repro/internal/ior"
	"repro/internal/textplot"
)

const miB = int64(1) << 20

func main() {
	cfgFile := flag.String("config", "", "JSON scenario file (overrides platform/app flags; see examples/scenario.json)")
	platform := flag.String("platform", "rennes", "platform: rennes | nancy | surveyor")
	procsA := flag.Int("procs-a", 336, "processes of application A")
	procsB := flag.Int("procs-b", 336, "processes of application B")
	mibPerProc := flag.Int64("mib-per-proc", 16, "MiB written per process")
	pattern := flag.String("pattern", "contiguous", "pattern: contiguous | strided")
	policies := flag.String("policies", "interfere,fcfs", "comma-separated: "+delta.PolicyNames)
	dtMin := flag.Float64("dt-min", -15, "minimum dt (seconds)")
	dtMax := flag.Float64("dt-max", 15, "maximum dt (seconds)")
	points := flag.Int("points", 21, "sweep points")
	factors := flag.Bool("factors", false, "plot interference factors instead of times")
	flag.Parse()
	if err := checkSweep(*points, *dtMin, *dtMax); err != nil {
		fatalf("%v", err)
	}

	var sc delta.Scenario
	if *cfgFile != "" {
		var err error
		sc, err = config.Load(*cfgFile)
		if err != nil {
			fatalf("%v", err)
		}
		if len(sc.Apps) != 2 {
			fatalf("config must define exactly 2 apps for a ∆-graph, got %d", len(sc.Apps))
		}
		runSweeps(sc, *policies, *dtMin, *dtMax, *points, *factors)
		return
	}

	sc, nodes, ok := experiments.PlatformByName(*platform)
	if !ok {
		fatalf("unknown platform %q", *platform)
	}

	w := ior.Workload{
		BlockSize:     2 * miB,
		BlocksPerProc: int(*mibPerProc / 2),
		CB:            ior.CollectiveBuffering{BufBytes: 16 * miB},
	}
	switch *pattern {
	case "contiguous":
		w.Pattern = ior.Contiguous
		w.BlockSize = *mibPerProc * miB
		w.BlocksPerProc = 1
		w.ReqBytes = 2 * miB
	case "strided":
		w.Pattern = ior.Strided
	default:
		fatalf("unknown pattern %q", *pattern)
	}

	sc.Apps = []delta.AppSpec{
		{Name: "A", Procs: *procsA, Nodes: nodes(*procsA), W: w, Gran: ior.PerRound},
		{Name: "B", Procs: *procsB, Nodes: nodes(*procsB), W: w, Gran: ior.PerRound},
	}
	fmt.Printf("platform=%s A=%d procs B=%d procs %s %d MiB/proc\n\n",
		sc.Name, *procsA, *procsB, *pattern, *mibPerProc)
	runSweeps(sc, *policies, *dtMin, *dtMax, *points, *factors)
}

// runSweeps sweeps every requested policy and prints tables plus one plot.
func runSweeps(sc delta.Scenario, policies string, dtMin, dtMax float64, points int, factors bool) {
	dts := make([]float64, points)
	for i := range dts {
		dts[i] = dtMin + (dtMax-dtMin)*float64(i)/float64(points-1)
	}

	var plotSeries []textplot.Series
	for _, pname := range strings.Split(policies, ",") {
		factory, ok := delta.PolicyByName(strings.TrimSpace(pname))
		if !ok {
			fatalf("unknown policy %q", pname)
		}
		s := sc.Sweep(factory, dts)
		fmt.Printf("policy %-12s soloA=%.3fs soloB=%.3fs\n", s.Policy, s.SoloA, s.SoloB)
		fmt.Printf("%8s  %10s  %10s  %8s  %8s\n", "dt", "timeA", "timeB", "factorA", "factorB")
		for i := range dts {
			fmt.Printf("%8.2f  %10.3f  %10.3f  %8.3f  %8.3f\n",
				dts[i], s.TimeA[i], s.TimeB[i], s.FactorA[i], s.FactorB[i])
		}
		fmt.Println()
		ya, yb := s.TimeA, s.TimeB
		if factors {
			ya, yb = s.FactorA, s.FactorB
		}
		plotSeries = append(plotSeries,
			textplot.Series{Name: "A/" + s.Policy, Y: ya},
			textplot.Series{Name: "B/" + s.Policy, Y: yb},
		)
	}

	ylabel := "write time (s)"
	if factors {
		ylabel = "interference factor"
	}
	fmt.Println(textplot.Line("∆-graph: "+ylabel+" vs dt", dts, plotSeries, 72, 18))
}

// checkSweep rejects a sweep the engine cannot run: under two points there
// is no step from dt-min to dt-max, NaN has no time, and an infinite offset
// never arrives.
func checkSweep(points int, dtMin, dtMax float64) error {
	if points < 2 {
		return fmt.Errorf("-points must be at least 2, got %d", points)
	}
	if math.IsNaN(dtMin) || math.IsInf(dtMin, 0) || math.IsNaN(dtMax) || math.IsInf(dtMax, 0) {
		return fmt.Errorf("-dt-min and -dt-max must be finite, got %v and %v", dtMin, dtMax)
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
