// Command benchmark is the repository's benchmark: six named workloads over
// the live daemon, offline replay and the simulator, a fixed set of
// end-to-end metrics with regression bounds, and — in a traced run —
// per-layer metrics taken from spans and counters around the benchmark's own
// calls into each layer's public API. BENCHMARK.json at the repository root
// describes it to the driver; README.md here describes it to people.
//
//	go run ./benchmark                       all six workloads, one child process each
//	go run ./benchmark -traced               ... plus a traced run of each
//	go run ./benchmark -workload mux-fanin   one workload, in this process
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// resultFile is the on-disk shape of every result: one run per workload
// and mode. A single -workload run writes a file with one entry.
type resultFile struct {
	Runs []*result `json:"runs"`
}

func main() {
	name := flag.String("workload", "", "run this workload in this process; empty runs all six, each in a fresh child process")
	seed := flag.Int64("seed", 1, "drives session-to-target rotation, the replay-whatif arrival pattern and the sim-sweep point order; nothing inside the program under test")
	seconds := flag.Float64("seconds", 10, "length of each workload's timed region")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from a traced run")
	traced := flag.Bool("traced", false, "without -workload: follow each workload's untraced run with a traced one")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	out := flag.String("out", "benchmark/out", "directory for result files, span dumps and the recorded trace")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		clean, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !clean {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*traceMode != 0 && *traceMode != 1) {
		fatal("need -seconds > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	o := options{seed: *seed, seconds: *seconds, traced: *traceMode == 1,
		setups: 11, microFor: 100 * time.Millisecond, outDir: *out}
	if *name != "" {
		os.Exit(runOne(*name, o))
	}
	os.Exit(runAll(o, *traced))
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "benchmark:", v)
	os.Exit(2)
}

func resultPath(o options, name string) string {
	return outPath(o, fmt.Sprintf("%s.trace%d.json", name, btoi(o.traced)))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runOne runs one workload in this process and prints its metrics; the last
// stdout line is the driver's JSON object.
func runOne(name string, o options) int {
	runtime.GOMAXPROCS(pinnedProcs)
	res, err := runWorkload(name, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printResult(res)
	if err := writeJSON(resultPath(o, name), resultFile{Runs: []*result{res}}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(driverLine(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload (and mode), so every
// workload starts from a fresh heap and its VmHWM is its own, then gathers
// the children's result files into one.
func runAll(o options, traced bool) int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	var all resultFile
	status := 0
	for _, name := range workloadNames {
		for _, mode := range modes {
			co := o
			co.traced = mode
			cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(btoi(mode)), "-out", o.outDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				status = 1
			}
			var rf resultFile
			if err := readJSON(resultPath(co, name), &rf); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
				status = 1
				continue
			}
			all.Runs = append(all.Runs, rf.Runs...)
		}
	}
	path := outPath(o, "result.json")
	if err := writeJSON(path, all); err != nil {
		fatal(err)
	}
	fmt.Printf("\nresult file: %s (compare two with -compare)\n", path)
	return status
}

func printResult(r *result) {
	e := r.Env
	fmt.Printf("workload %s: seed=%d seconds=%g traced=%v closed-loop clients=%d transport=%s\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Clients, e.Transport)
	fmt.Printf("  why: %s\n", r.Why)
	label := ""
	if e.Label != "" {
		label = " [" + e.Label + "]"
	}
	fmt.Printf("  env: cpu=%q nproc=%d GOMAXPROCS=%d %s kernel=%s commit=%s%s\n",
		e.CPU, e.NProc, e.GOMAXPROCS, e.Go, e.Kernel, e.Commit, label)
	if r.Traced {
		for _, d := range perLayerDefs {
			printMetric(r.Metrics, d.Name)
		}
	} else {
		for _, d := range endToEndDefs {
			printMetric(r.Metrics, d.Name)
		}
	}
	fmt.Printf("  %-32s %14d\n", "latency_samples", r.Samples)
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("  check %s %s (%s)\n", verdict, c.Name, c.Detail)
	}
}

func printMetric(m metricSet, name string) {
	if v, ok := m[name]; ok {
		fmt.Printf("  %-32s %14.4f %s\n", name, v.Value, v.Unit)
	}
}

// driverLine is the contract's last stdout line: the BENCHMARK.json
// end_to_end metrics of an untraced run, the per_layer ones of a traced run.
func driverLine(r *result) string {
	metrics := metricSet{}
	if r.Traced {
		for _, d := range perLayerDefs {
			metrics[d.Name] = r.Metrics[d.Name]
		}
	} else {
		for _, d := range endToEndDefs {
			if d.Gated {
				metrics[d.Name] = r.Metrics[d.Name]
			}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // NaN or Inf in a metric: a bug in the benchmark
	}
	return string(b)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
