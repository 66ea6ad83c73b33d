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
	policy := fs.String("policy", "all", "policy: all, none (no coordination layer) or "+core.PolicySpecs)
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
	order := []string{"none", "fcfs", "interrupt", "dynamic(cpu-seconds)"}
	if *policy != "all" {
		order = []string{*policy}
	}
	factories := make([]delta.PolicyFactory, len(order)) // none: nil, no layer
	for i, name := range order {
		if name != "none" {
			var err error
			if factories[i], err = delta.Spec(name); err != nil {
				fmt.Fprintf(stderr, "calciom-machine: %v\n", err)
				return 2
			}
		}
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

	for _, factory := range factories {
		res := machine.Run(cfg, tr, factory)
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
