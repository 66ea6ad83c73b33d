// Command calciom-replay re-arbitrates a recorded coordination trace
// offline: it reads a trace recorded by calciomd -record, verifies that
// replaying it under the recording policy reproduces the live grant
// sequence exactly, then replays the same arrival
// pattern under every policy and prints a comparison — total and tail wait,
// the convoy-vs-protocol decomposition, permitted interference overlap, the
// estimated interference factors and CPU-seconds wasted — with a
// recommended policy. It closes the paper's loop: observe live traffic,
// then answer "which coordination strategy fits this workload?" without
// re-running the applications, and deploy the answer: every policy is named
// by its core.ParsePolicy spec, which calciomd -policy accepts.
//
//	calciomd -listen 127.0.0.1:9595 -record run.trace   # terminal 1
//	calciom-load -addr 127.0.0.1:9595 -clients 64       # terminal 2
//	calciom-replay -trace run.trace                     # afterwards
//
// The output is deterministic: running calciom-replay twice on one trace
// emits byte-identical text. The final "replay:" line is machine-readable;
// the "verify:" line reports the exact-reproduction check (match=true means
// the replayed grant count and sequence equal the live run's).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/textplot"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it writes the report to stdout and returns the exit
// status — 2 when the command line is at fault, 1 when the trace cannot be
// read, compared or reproduced.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("calciom-replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	path := fs.String("trace", "", "trace file recorded by calciomd -record")
	policies := fs.String("policies", "", "comma-separated families to compare: fcfs,interrupt,interfere,delay,dynamic (default: all available); each row is named by its core.ParsePolicy spec, which calciomd -policy accepts")
	overlap := fs.Float64("delay-overlap", -1, "delay policy overlap fraction (-1: the recording's own, or 0.5)")
	fsMiBps := fs.Float64("fs-mibps", 0, "override the performance model's file-system bandwidth (enables delay/dynamic on model-free traces)")
	nicMiBps := fs.Float64("proc-nic-mibps", 0, "override the performance model's per-core injection bandwidth")
	apps := fs.Bool("apps", false, "print per-application rows for every policy")
	width := fs.Int("width", 40, "bar chart width")
	allowTrunc := fs.Bool("allow-truncated", false, "accept a truncated trace (crashed recorder): read up to the torn tail, report the truncation point, verify the grant sequence as a prefix")
	jsonOut := fs.Bool("json", false, "emit the comparison as one JSON document (per-policy objects with the text table's fields plus wait histograms) instead of text")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(status int, err error) int {
		fmt.Fprintln(stderr, err)
		return status
	}
	if *path == "" && fs.NArg() == 1 {
		*path = fs.Arg(0)
	}
	if *path == "" {
		return fail(2, errors.New("calciom-replay: -trace is required"))
	}

	load := trace.Load
	if *allowTrunc {
		load = trace.LoadLenient
	}
	tr, err := load(*path)
	if err != nil {
		return fail(1, err)
	}
	if *fsMiBps > 0 {
		tr.Header.FSMiBps = *fsMiBps
	}
	if *nicMiBps > 0 {
		tr.Header.ProcNICMiBps = *nicMiBps
	}

	first, last := tr.Span()
	sessions := tr.Sessions()
	if !*jsonOut {
		fmt.Fprintf(stdout, "trace: path=%s source=%s policy=%s events=%d sessions=%d span=%.3fs dropped=%d\n",
			*path, tr.Header.Source, tr.Header.Policy, len(tr.Events), sessions, last-first, tr.Dropped)
		if tr.Truncated {
			fmt.Fprintf(stdout, "trace: TRUNCATED after event %d (recorder died mid-write; analyzing the surviving prefix)\n",
				len(tr.Events))
		}
	}

	// Exact-reproduction check: the trace carries the recorded grant
	// sequence; replaying under the recording policy must reproduce it.
	v, err := replay.Verify(tr)
	if err != nil {
		return fail(1, err)
	}
	if !*jsonOut {
		fmt.Fprintf(stdout, "verify: policy=%s grants=%d arbitrations=%d flips=%d match=%v\n",
			tr.Header.Policy, v.GrantsServed, v.Arbitrations, len(v.Flips), v.Match)
		if len(v.Shards) > 1 {
			// Sharded recording: the check is per storage target (each
			// target's grant sequence is its own serialized order).
			for _, sh := range v.Shards {
				fmt.Fprintf(stdout, "verify-target: target=%s grants=%d flips=%d match=%v\n",
					sh.Target, sh.GrantsServed, sh.Flips, sh.Match)
			}
		}
	}
	if !v.Match {
		return fail(1, fmt.Errorf("calciom-replay: replay diverged from recording: %s", v.Mismatch))
	}

	cands := replay.StandardPolicies(tr.Header, *overlap)
	if *policies != "" {
		cands = filterPolicies(cands, *policies)
		if len(cands) == 0 {
			return fail(2, fmt.Errorf("calciom-replay: no known policy in %q", *policies))
		}
	}
	c, err := replay.Compare(tr, cands)
	if err != nil {
		return fail(1, err)
	}

	if *jsonOut {
		doc := jsonDoc{
			Trace: jsonTrace{
				Path: *path, Source: string(tr.Header.Source), Policy: tr.Header.Policy,
				Events: len(tr.Events), Sessions: sessions, SpanS: last - first,
				Dropped: tr.Dropped, Truncated: tr.Truncated,
			},
			Verify: jsonVerify{
				Policy: tr.Header.Policy, Grants: v.GrantsServed,
				Arbitrations: v.Arbitrations, Flips: len(v.Flips),
				Match: v.Match,
			},
			Recording: c.Recording,
			Best:      c.Outcomes[c.Best].Policy,
		}
		for i := range c.Outcomes {
			o := &c.Outcomes[i]
			p := jsonPolicy{
				Policy: o.Policy, Best: i == c.Best,
				Grants: o.GrantsServed, Unserved: o.Unserved, Aborted: o.Aborted,
				WaitTotalS: o.TotalWaitS, WaitP50S: o.WaitPercentile(50),
				WaitP99S: o.WaitPercentile(99), WaitMaxS: o.MaxWait(),
				ConvoyWaitS: o.ConvoyWaitS, ProtocolWaitS: o.ProtocolWaitS,
				OverlapS: o.OverlapS, SumInterference: o.SumInterference,
				CPUSecondsWasted: o.CPUSecondsWasted,
				WaitHist:         o.WaitHist(),
			}
			if *apps {
				for _, a := range o.Apps {
					p.Apps = append(p.Apps, jsonApp{
						Name: a.Name, Target: a.Target, Cores: a.Cores,
						Phases: a.Phases, Grants: a.Grants, IOTimeS: a.IOTimeS,
						WaitS: a.WaitS, ConvoyWaitS: a.ConvoyWaitS, ProtocolWaitS: a.ProtocolWaitS,
					})
				}
			}
			doc.Policies = append(doc.Policies, p)
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			return fail(1, err)
		}
		return 0
	}

	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "%-22s %7s %5s %5s %10s %10s %10s %10s %10s %10s %8s %10s\n",
		"policy", "grants", "uns", "abrt", "wait_tot", "wait_p99", "wait_max", "convoy", "protocol", "overlap", "sumI", "cpu_sec")
	for i := range c.Outcomes {
		o := &c.Outcomes[i]
		mark := " "
		if i == c.Best {
			mark = "*"
		}
		fmt.Fprintf(stdout, "%-21s%s %7d %5d %5d %9.3fs %9.4fs %9.4fs %9.3fs %9.3fs %9.3fs %8.3f %10.1f\n",
			o.Policy, mark, o.GrantsServed, o.Unserved, o.Aborted, o.TotalWaitS,
			o.WaitPercentile(99), o.MaxWait(), o.ConvoyWaitS, o.ProtocolWaitS,
			o.OverlapS, o.SumInterference, o.CPUSecondsWasted)
	}
	fmt.Fprintln(stdout)

	labels := make([]string, len(c.Outcomes))
	values := make([]float64, len(c.Outcomes))
	for i := range c.Outcomes {
		labels[i] = c.Outcomes[i].Policy
		values[i] = c.Outcomes[i].CPUSecondsWasted
	}
	fmt.Fprint(stdout, textplot.Bar("estimated CPU-seconds wasted by policy (lower is better)", labels, values, *width))
	fmt.Fprintln(stdout)

	if *apps {
		for i := range c.Outcomes {
			o := &c.Outcomes[i]
			fmt.Fprintf(stdout, "apps under %s:\n", o.Policy)
			fmt.Fprintf(stdout, "  %-24s %6s %7s %7s %10s %10s %10s %10s\n",
				"app", "cores", "phases", "grants", "io_s", "wait_s", "convoy_s", "proto_s")
			for _, a := range o.Apps {
				fmt.Fprintf(stdout, "  %-24s %6d %7d %7d %10.3f %10.3f %10.3f %10.3f\n",
					a.Name, a.Cores, a.Phases, a.Grants, a.IOTimeS, a.WaitS, a.ConvoyWaitS, a.ProtocolWaitS)
			}
			fmt.Fprintln(stdout)
		}
	}

	best := &c.Outcomes[c.Best]
	fmt.Fprintf(stdout, "replay: trace=%s recording=%s policies=%d best=%s cpu_sec=%.3f wait_s=%.3f overlap_s=%.3f unserved=%d\n",
		*path, c.Recording, len(c.Outcomes), best.Policy, best.CPUSecondsWasted,
		best.TotalWaitS, best.OverlapS, best.Unserved)
	return 0
}

// The -json document: one object per policy carrying the text table's
// fields (plus the wait histogram in the daemon's bucket layout), wrapped
// with the trace/verify context the text header lines report.
type jsonDoc struct {
	Trace     jsonTrace    `json:"trace"`
	Verify    jsonVerify   `json:"verify"`
	Recording string       `json:"recording"`
	Best      string       `json:"best"`
	Policies  []jsonPolicy `json:"policies"`
}

type jsonTrace struct {
	Path      string  `json:"path"`
	Source    string  `json:"source"`
	Policy    string  `json:"policy"`
	Events    int     `json:"events"`
	Sessions  int     `json:"sessions"`
	SpanS     float64 `json:"span_s"`
	Dropped   uint64  `json:"dropped"`
	Truncated bool    `json:"truncated,omitempty"`
}

type jsonVerify struct {
	Policy       string `json:"policy"`
	Grants       uint64 `json:"grants"`
	Arbitrations uint64 `json:"arbitrations"`
	Flips        int    `json:"flips"`
	Match        bool   `json:"match"`
}

type jsonPolicy struct {
	Policy           string     `json:"policy"`
	Best             bool       `json:"best"`
	Grants           uint64     `json:"grants"`
	Unserved         int        `json:"unserved"`
	Aborted          int        `json:"aborted"`
	WaitTotalS       float64    `json:"wait_total_s"`
	WaitP50S         float64    `json:"wait_p50_s"`
	WaitP99S         float64    `json:"wait_p99_s"`
	WaitMaxS         float64    `json:"wait_max_s"`
	ConvoyWaitS      float64    `json:"convoy_wait_s"`
	ProtocolWaitS    float64    `json:"protocol_wait_s"`
	OverlapS         float64    `json:"overlap_s"`
	SumInterference  float64    `json:"sum_interference"`
	CPUSecondsWasted float64    `json:"cpu_seconds_wasted"`
	WaitHist         *wire.Hist `json:"wait_hist"`
	Apps             []jsonApp  `json:"apps,omitempty"`
}

type jsonApp struct {
	Name          string  `json:"name"`
	Target        string  `json:"target,omitempty"`
	Cores         int     `json:"cores"`
	Phases        int     `json:"phases"`
	Grants        uint64  `json:"grants"`
	IOTimeS       float64 `json:"io_time_s"`
	WaitS         float64 `json:"wait_s"`
	ConvoyWaitS   float64 `json:"convoy_wait_s"`
	ProtocolWaitS float64 `json:"protocol_wait_s"`
}

// filterPolicies keeps the candidates whose family name (the part before
// any parenthesis) appears in the comma-separated list.
func filterPolicies(cands []core.Policy, list string) []core.Policy {
	want := strings.Split(list, ",")
	for i := range want {
		want[i] = strings.TrimSpace(want[i])
	}
	return slices.DeleteFunc(cands, func(p core.Policy) bool {
		fam, _, _ := strings.Cut(p.Name(), "(")
		return !slices.Contains(want, fam)
	})
}
