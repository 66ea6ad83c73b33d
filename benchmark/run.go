package main

import (
	"fmt"
	"time"
)

// options are one run's knobs. The command line sets seed, seconds, traced
// and outDir; tests shrink setups and microFor so a smoke pass of all six
// workloads stays well inside the tier-1 time budget.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	// setups is how many times set-up runs; setup_s is their median, because
	// a single 20 ms set-up is mostly scheduler luck. Half run before the
	// timed region and half after it, so one burst cannot colour them all.
	setups int
	// microFor is how long each outside-only micro-drive measures.
	microFor time.Duration
	outDir   string
}

// region is one measured stretch of a workload: what its closed-loop
// clients completed and observed.
type region struct {
	ops, failed int
	windows     []window
	mallocs     uint64 // runtime.MemStats.Mallocs delta, whole process
	recs        []*recorder
}

func (r *region) add(o region) {
	r.ops += o.ops
	r.failed += o.failed
	r.windows = append(r.windows, o.windows...)
	r.mallocs += o.mallocs
	r.recs = append(r.recs, o.recs...)
}

func (r *region) opsPerS() float64 { return medianOver(r.windows, windowRate) }

// check is one correctness gate's verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func gate(name string, ok bool, format string, args ...any) check {
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)}
}

// workload is one named set of inputs. The driver below owns what is common
// — repeated set-up, the timed regions, the end-to-end metrics — and each
// workload owns its load shape, its correctness gates and the per-layer
// numbers only its own run can produce.
type workload interface {
	// clients is the closed-loop client count (stated in the output).
	clients() int
	// setup does everything that precedes the timed region.
	setup() error
	// teardown stops every goroutine and closes every file setup started. It
	// is safe to call twice.
	teardown()
	// run drives the clients through n windows of the given length and
	// returns what they observed; with traced set, every client records
	// spans around its calls.
	run(window time.Duration, n int, traced bool) region
	// finish runs after the last region. It adds the per-layer metrics that
	// come from this workload's own run to m and returns its gates' verdicts.
	// all is every region merged.
	finish(all *region, spans *spanStats, m metricSet) []check
}

// result is everything one run of one workload produced; it is the result
// file's content, and the last stdout line is a projection of it.
type result struct {
	Workload  string    `json:"workload"`
	Why       string    `json:"why"`
	Seed      int64     `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Clients   int       `json:"closed_loop_clients"`
	Env       env       `json:"env"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Samples   int       `json:"latency_samples"`
	Checks    []check   `json:"checks"`
	Metrics   metricSet `json:"metrics"`
	// Windows are the untraced timed region's equal slices, whose medians
	// the end-to-end throughput and latency metrics are; kept so that a
	// noisy run can be told from a slow one.
	Windows []windowSummary `json:"windows"`
	Spans   []spanSummary   `json:"spans,omitempty"`
}

type windowSummary struct {
	Ops     int     `json:"ops"`
	OpsPerS float64 `json:"ops_per_s"`
	P50Us   float64 `json:"p50_us"`
	P90Us   float64 `json:"p90_us"`
}

func runWorkload(name string, o options) (*result, error) {
	w, err := newWorkload(name, o)
	if err != nil {
		return nil, err
	}
	defer w.teardown()
	var setupS []float64
	setUp := func(times int) error {
		for i := 0; i < times; i++ {
			w.teardown()
			t0 := time.Now()
			if err := w.setup(); err != nil {
				return fmt.Errorf("%s: setup: %w", name, err)
			}
			setupS = append(setupS, time.Since(t0).Seconds())
		}
		return nil
	}
	if err := setUp((o.setups + 1) / 2); err != nil {
		return nil, err
	}

	win := time.Duration(o.seconds * float64(time.Second) / runWindows)
	var u, t region
	if o.traced {
		// Untraced and traced slices alternate inside one process, on the
		// same daemon and connections, so the pair differs by tracing alone:
		// that difference is trace_overhead_pct, and the untraced slices
		// give the numbers that must be measured with tracing off.
		for i := 0; i < 2; i++ {
			u.add(w.run(win, runWindows/4, false))
			t.add(w.run(win, runWindows/4, true))
		}
	} else {
		u = w.run(win, runWindows, false)
	}
	// Read before the gates run: verifying a recorded trace loads it whole,
	// which is the benchmark's memory, not the system's.
	rss := peakRSSMiB()

	m := metricSet{}
	all := u
	all.add(t)
	spans := summarize(t.recs)
	res := &result{
		Workload: name, Why: workloadWhy[name], Seed: o.seed, Seconds: o.seconds,
		Traced: o.traced, Clients: w.clients(), Env: stampEnv(),
		Attempted: all.ops + all.failed, Failed: all.failed, Samples: u.ops,
		Metrics: m, Spans: spans.summaries(),
	}
	for i := range u.windows {
		uw := &u.windows[i]
		res.Windows = append(res.Windows, windowSummary{Ops: len(uw.lat), OpsPerS: uw.rate,
			P50Us: us(percentile(uw.lat, 50)), P90Us: us(percentile(uw.lat, 90))})
	}
	res.Checks = w.finish(&all, spans, m)
	res.Checks = append(res.Checks, gate("every op succeeded", all.failed == 0 && all.ops > 0,
		"%d of %d failed", all.failed, all.ops+all.failed))
	if err := setUp(o.setups / 2); err != nil {
		return nil, err
	}

	m.set("allocs_per_op", ratio(float64(u.mallocs), float64(u.ops)))
	if o.traced {
		m.set("trace_overhead_pct", 100*ratio(u.opsPerS()-t.opsPerS(), u.opsPerS()))
		microDrives(m, o)
		for _, d := range perLayerDefs {
			if _, ok := m[d.Name]; !ok {
				m.set(d.Name, 0) // a layer this workload does not execute
			}
		}
		if err := writeSpans(outPath(o, name+".spans.jsonl"), t.recs); err != nil {
			return nil, err
		}
	} else {
		m.set("ops_per_s", u.opsPerS())
		m.set("op_p50_us", medianOver(u.windows, windowPercentile(50)))
		m.set("op_p90_us", medianOver(u.windows, windowPercentile(90)))
		m.set("peak_rss_mb", rss)
		m.set("setup_s", medianFloat(setupS))
		m.set("error_rate", ratio(float64(res.Failed), float64(res.Attempted)))
	}
	res.Correct = true
	for _, c := range res.Checks {
		res.Correct = res.Correct && c.OK
	}
	return res, nil
}
