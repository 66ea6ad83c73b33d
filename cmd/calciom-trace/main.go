// Command calciom-trace analyzes a job trace in Standard Workload Format
// the way the paper's Section II does: job-size distribution (Fig. 1a),
// concurrent-job distribution (Fig. 1b), and the probability that another
// application is doing I/O at any instant.
//
// With -file it reads a real SWF trace (e.g. ANL-Intrepid-2009-1.swf from
// the Parallel Workload Archive); without, it generates the calibrated
// synthetic Intrepid-like trace.
//
// With -coord it instead summarizes a coordination trace recorded by
// calciomd -record: header, event and session counts, span, and
// per-event-type totals. -allow-truncated accepts a trace whose recorder
// died mid-write (kill -9), reading up to the torn tail and reporting the
// truncation point.
package main

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"slices"

	"repro/internal/swf"
	"repro/internal/textplot"
	"repro/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it writes the report to stdout and returns the exit
// status — 2 for a malformed command line, 1 for a trace it cannot read.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calciom-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	file := fs.String("file", "", "SWF trace file (empty: synthetic Intrepid-like)")
	days := fs.Float64("days", 243, "synthetic trace length in days")
	seed := fs.Int64("seed", 20090101, "synthetic trace seed")
	mu := fs.Float64("mu", 0.05, "E[µ]: fraction of time an app spends in I/O")
	plot := fs.Bool("plot", true, "render ASCII charts")
	coord := fs.String("coord", "", "summarize this coordination trace (calciomd -record) instead of an SWF trace")
	allowTrunc := fs.Bool("allow-truncated", false, "with -coord: accept a truncated (crashed-recorder) trace, reporting the truncation point")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *coord != "" {
		return summarizeCoord(stdout, stderr, *coord, *allowTrunc)
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
		fmt.Fprintf(stdout, "trace: %s (%d jobs)\n\n", *file, len(tr.Jobs))
	} else {
		tr = swf.Generate(swf.GenConfig{Seed: *seed, Days: *days})
		fmt.Fprintf(stdout, "trace: synthetic Intrepid-like, %d jobs over %.0f days (seed %d)\n\n",
			len(tr.Jobs), *days, *seed)
	}

	// Fig. 1a.
	fmt.Fprintln(stdout, "job-size distribution (Fig. 1a):")
	fmt.Fprintf(stdout, "%10s  %8s  %8s  %9s  %9s\n", "cores<=", "%jobs", "CDF%", "%time", "timeCDF%")
	buckets := swf.SizeDistribution(tr)
	var labels []string
	var shares []float64
	for _, b := range buckets {
		fmt.Fprintf(stdout, "%10d  %8.2f  %8.2f  %9.2f  %9.2f\n",
			b.Cores, 100*b.Share, 100*b.CDF, 100*b.TimeShare, 100*b.TimeCDF)
		labels = append(labels, fmt.Sprintf("%d", b.Cores))
		shares = append(shares, 100*b.Share)
	}
	fmt.Fprintf(stdout, "median job size: %d cores\n\n", swf.MedianJobSize(tr))
	if *plot {
		fmt.Fprintln(stdout, textplot.Bar("% of jobs by size bucket", labels, shares, 40))
	}

	// Fig. 1b.
	dist := swf.ConcurrencyDistribution(tr)
	fmt.Fprintln(stdout, "concurrent-jobs distribution (Fig. 1b):")
	fmt.Fprintf(stdout, "mean concurrency: %.2f\n", swf.MeanConcurrency(tr))
	if *plot {
		var xs []float64
		var ys []float64
		for k, p := range dist {
			xs = append(xs, float64(k))
			ys = append(ys, p)
		}
		fmt.Fprintln(stdout, textplot.Line("proportion of time vs #concurrent jobs", xs,
			[]textplot.Series{{Name: "P(X=k)", Y: ys}}, 64, 12))
	}

	// §II-B probability.
	fmt.Fprintf(stdout, "P(another app is doing I/O) at E[µ]=%.0f%%: %.1f%%\n",
		100**mu, 100*swf.ProbOtherDoingIO(tr, *mu))
	fmt.Fprintln(stdout, "(paper: 64% at E[µ]=5% on the Intrepid trace)")
	return 0
}

// summarizeCoord prints a deterministic summary of a coordination trace:
// the analysis entry point for a trace that may have survived a daemon
// crash, where the first question is "how much of it is usable?".
func summarizeCoord(stdout, stderr io.Writer, path string, allowTrunc bool) int {
	load := trace.Load
	if allowTrunc {
		load = trace.LoadLenient
	}
	tr, err := load(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	targets := map[string]bool{}
	byType := map[string]int{}
	for _, ev := range tr.Events {
		byType[ev.Type.String()]++
		targets[ev.Target] = true
	}
	first, last := tr.Span()
	fmt.Fprintf(stdout, "coord-trace: path=%s source=%s policy=%s events=%d sessions=%d targets=%d span=%.3fs dropped=%d\n",
		path, tr.Header.Source, tr.Header.Policy, len(tr.Events), tr.Sessions(), len(targets), last-first, tr.Dropped)
	if tr.Truncated {
		fmt.Fprintf(stdout, "coord-trace: TRUNCATED after event %d (recorder died mid-write)\n", len(tr.Events))
	}
	for _, name := range slices.Sorted(maps.Keys(byType)) {
		fmt.Fprintf(stdout, "coord-trace: type=%s count=%d\n", name, byType[name])
	}
	return 0
}
