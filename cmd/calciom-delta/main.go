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
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it writes the tables and the plot to stdout and
// returns the exit status, 2 for any error — every one is the command
// line's or its scenario file's.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calciom-delta", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfgFile := fs.String("config", "", "JSON scenario file (overrides platform/app flags; see examples/scenario.json)")
	platform := fs.String("platform", "rennes", "platform: rennes | nancy | surveyor")
	procsA := fs.Int("procs-a", 336, "processes of application A")
	procsB := fs.Int("procs-b", 336, "processes of application B")
	mibPerProc := fs.Int64("mib-per-proc", 16, "MiB written per process")
	pattern := fs.String("pattern", "contiguous", "pattern: contiguous | strided")
	policies := fs.String("policies", "interfere,fcfs", "comma-separated: "+delta.PolicyNames+", or a core.ParsePolicy spec such as delay(0.25) or fairshare(0.50)")
	dtMin := fs.Float64("dt-min", -15, "minimum dt (seconds)")
	dtMax := fs.Float64("dt-max", 15, "maximum dt (seconds)")
	points := fs.Int("points", 21, "sweep points")
	factors := fs.Bool("factors", false, "plot interference factors instead of times")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(format string, a ...any) int {
		fmt.Fprintf(stderr, format+"\n", a...)
		return 2
	}
	if err := checkSweep(*points, *dtMin, *dtMax); err != nil {
		return fail("%v", err)
	}
	var factories []delta.PolicyFactory
	for _, pname := range strings.Split(*policies, ",") {
		factory, ok := delta.PolicyByName(strings.TrimSpace(pname))
		if !ok {
			return fail("unknown policy %q", pname)
		}
		factories = append(factories, factory)
	}

	if *cfgFile != "" {
		sc, err := config.Load(*cfgFile)
		if err != nil {
			return fail("%v", err)
		}
		if len(sc.Apps) != 2 {
			return fail("config must define exactly 2 apps for a ∆-graph, got %d", len(sc.Apps))
		}
		runSweeps(stdout, sc, factories, *dtMin, *dtMax, *points, *factors)
		return 0
	}

	sc, nodes, ok := experiments.PlatformByName(*platform)
	if !ok {
		return fail("unknown platform %q", *platform)
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
		return fail("unknown pattern %q", *pattern)
	}

	sc.Apps = []delta.AppSpec{
		{Name: "A", Procs: *procsA, Nodes: nodes(*procsA), W: w, Gran: ior.PerRound},
		{Name: "B", Procs: *procsB, Nodes: nodes(*procsB), W: w, Gran: ior.PerRound},
	}
	fmt.Fprintf(stdout, "platform=%s A=%d procs B=%d procs %s %d MiB/proc\n\n",
		sc.Name, *procsA, *procsB, *pattern, *mibPerProc)
	runSweeps(stdout, sc, factories, *dtMin, *dtMax, *points, *factors)
	return 0
}

// runSweeps sweeps every requested policy and prints tables plus one plot.
func runSweeps(stdout io.Writer, sc delta.Scenario, factories []delta.PolicyFactory, dtMin, dtMax float64, points int, factors bool) {
	dts := make([]float64, points)
	for i := range dts {
		dts[i] = dtMin + (dtMax-dtMin)*float64(i)/float64(points-1)
	}

	var plotSeries []textplot.Series
	for _, factory := range factories {
		s := sc.Sweep(factory, dts)
		fmt.Fprintf(stdout, "policy %-12s soloA=%.3fs soloB=%.3fs\n", s.Policy, s.SoloA, s.SoloB)
		fmt.Fprintf(stdout, "%8s  %10s  %10s  %8s  %8s\n", "dt", "timeA", "timeB", "factorA", "factorB")
		for i := range dts {
			fmt.Fprintf(stdout, "%8.2f  %10.3f  %10.3f  %8.3f  %8.3f\n",
				dts[i], s.TimeA[i], s.TimeB[i], s.FactorA[i], s.FactorB[i])
		}
		fmt.Fprintln(stdout)
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
	fmt.Fprintln(stdout, textplot.Line("∆-graph: "+ylabel+" vs dt", dts, plotSeries, 72, 18))
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
