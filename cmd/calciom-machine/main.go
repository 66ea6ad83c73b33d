// Command calciom-machine runs the trace-driven whole-machine study: an SWF
// job trace (real or synthetic) replayed against a shared parallel file
// system, each job doing periodic I/O, under a chosen coordination policy.
//
// Examples:
//
//	calciom-machine                              # synthetic day, all policies
//	calciom-machine -policy fcfs -jobs 300
//	calciom-machine -file ANL-Intrepid-2009-1.swf -days 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/machine"
	"repro/internal/swf"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// policies is this command's own table, not delta.PolicyByName's: its
// dynamic policy lets two jobs interfere when the model predicts that is
// cheaper, where the ∆ tools' dynamic never does.
var policies = map[string]delta.PolicyFactory{
	"none":      delta.Uncoordinated,
	"fcfs":      delta.FCFS,
	"interrupt": delta.Interrupt,
	"dynamic":   delta.Dynamic(core.CPUSecondsWasted{}, true),
}

// run is the command: it writes the study to stdout and returns the exit
// status — 2 when the command line is at fault, 1 when the trace is.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calciom-machine", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("file", "", "SWF trace file (empty: synthetic Intrepid-like)")
	days := fs.Float64("days", 1, "trace length in days (synthetic) / horizon (real)")
	seed := fs.Int64("seed", 42, "synthetic trace seed")
	jobs := fs.Int("jobs", 150, "max jobs to replay (0 = all)")
	servers := fs.Int("servers", 32, "file-system servers")
	bytesPerCore := fs.Int64("mib-per-core", 8, "MiB written per core per phase")
	period := fs.Float64("period", 300, "seconds of compute between I/O phases")
	policy := fs.String("policy", "all", "policy: none|fcfs|interrupt|dynamic|all")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	var tr *swf.Trace
	if *file != "" {
		f, err := os.Open(*file)
		if err == nil {
			tr, err = swf.Parse(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		// Clamp to the horizon.
		horizon := *days * 86400
		tr.Jobs = slices.DeleteFunc(tr.Jobs, func(j swf.Job) bool { return !(j.Submit <= horizon) })
	} else {
		tr = swf.Generate(swf.GenConfig{Seed: *seed, Days: *days})
	}
	order := []string{"none", "fcfs", "interrupt", "dynamic"}
	if *policy != "all" {
		if _, ok := policies[*policy]; !ok {
			fmt.Fprintf(stderr, "unknown policy %q\n", *policy)
			return 2
		}
		order = []string{*policy}
	}

	cfg := machine.IntrepidConfig()
	cfg.FS.Servers = *servers
	cfg.BytesPerCore = *bytesPerCore << 20
	cfg.PhasePeriod = *period
	cfg.MaxJobs = *jobs

	fmt.Fprintf(stdout, "trace: %d jobs; machine: %d servers (%.1f GiB/s), %d MiB/core every %.0fs\n\n",
		len(tr.Jobs), cfg.FS.Servers,
		float64(cfg.FS.Servers)*cfg.FS.ServerBW/float64(1<<30),
		*bytesPerCore, *period)

	for _, key := range order {
		res := machine.Run(cfg, tr, policies[key])
		fmt.Fprintln(stdout, res)
		// Worst five jobs by interference factor.
		worst := append([]machine.JobOutcome(nil), res.Jobs...)
		for i := 0; i < len(worst); i++ {
			for j := i + 1; j < len(worst); j++ {
				if worst[j].Factor > worst[i].Factor {
					worst[i], worst[j] = worst[j], worst[i]
				}
			}
		}
		for _, w := range worst[:min(5, len(worst))] {
			fmt.Fprintf(stdout, "   worst: job%-6d %7d cores  I=%6.2f  (io %.1fs vs solo %.1fs)\n",
				w.ID, w.Cores, w.Factor, w.IOTime, w.SoloIO)
		}
		fmt.Fprintln(stdout)
	}
	return 0
}
