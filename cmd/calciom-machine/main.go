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
	"os"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/machine"
	"repro/internal/swf"
)

func main() {
	file := flag.String("file", "", "SWF trace file (empty: synthetic Intrepid-like)")
	days := flag.Float64("days", 1, "trace length in days (synthetic) / horizon (real)")
	seed := flag.Int64("seed", 42, "synthetic trace seed")
	jobs := flag.Int("jobs", 150, "max jobs to replay (0 = all)")
	servers := flag.Int("servers", 32, "file-system servers")
	bytesPerCore := flag.Int64("mib-per-core", 8, "MiB written per core per phase")
	period := flag.Float64("period", 300, "seconds of compute between I/O phases")
	policy := flag.String("policy", "all", "policy: none|fcfs|interrupt|dynamic|all")
	flag.Parse()

	var tr *swf.Trace
	var err error
	if *file != "" {
		f, err2 := os.Open(*file)
		if err2 != nil {
			fmt.Fprintln(os.Stderr, err2)
			os.Exit(1)
		}
		defer f.Close()
		tr, err = swf.Parse(f)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		// Clamp to the horizon.
		horizon := *days * 86400
		var jobsIn []swf.Job
		for _, j := range tr.Jobs {
			if j.Submit <= horizon {
				jobsIn = append(jobsIn, j)
			}
		}
		tr.Jobs = jobsIn
	} else {
		tr = swf.Generate(swf.GenConfig{Seed: *seed, Days: *days})
	}

	cfg := machine.IntrepidConfig()
	cfg.FS.Servers = *servers
	cfg.BytesPerCore = *bytesPerCore << 20
	cfg.PhasePeriod = *period
	cfg.MaxJobs = *jobs

	fmt.Printf("trace: %d jobs; machine: %d servers (%.1f GiB/s), %d MiB/core every %.0fs\n\n",
		len(tr.Jobs), cfg.FS.Servers,
		float64(cfg.FS.Servers)*cfg.FS.ServerBW/float64(1<<30),
		*bytesPerCore, *period)

	policies := map[string]delta.PolicyFactory{
		"none":      delta.Uncoordinated,
		"fcfs":      delta.FCFS,
		"interrupt": delta.Interrupt,
		"dynamic":   delta.Dynamic(core.CPUSecondsWasted{}, true),
	}
	var order []string
	if *policy == "all" {
		order = []string{"none", "fcfs", "interrupt", "dynamic"}
	} else if _, ok := policies[*policy]; ok {
		order = []string{*policy}
	} else {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", *policy)
		os.Exit(2)
	}

	for _, key := range order {
		res := machine.Run(cfg, tr, policies[key])
		fmt.Println(res)
		// Worst five jobs by interference factor.
		worst := append([]machine.JobOutcome(nil), res.Jobs...)
		for i := 0; i < len(worst); i++ {
			for j := i + 1; j < len(worst); j++ {
				if worst[j].Factor > worst[i].Factor {
					worst[i], worst[j] = worst[j], worst[i]
				}
			}
		}
		n := 5
		if len(worst) < n {
			n = len(worst)
		}
		for _, w := range worst[:n] {
			fmt.Printf("   worst: job%-6d %7d cores  I=%6.2f  (io %.1fs vs solo %.1fs)\n",
				w.ID, w.Cores, w.Factor, w.IOTime, w.SoloIO)
		}
		fmt.Println()
	}
}
