package main

import "fmt"

// gateBound is the bound BENCHMARK.json gives every end_to_end metric: the
// widest the driver's contract allows. The host this was built on is a
// shared 2-vCPU VM whose speed wanders by 20-40 % over minutes whatever the
// benchmark does (README "Steadiness"), and a gate narrower than the noise
// rejects changes at random. -compare keeps the issue's tighter bounds for
// a human who can see whether both result files came from a quiet spell.
const gateBound = 0.25

// metricDef names one end-to-end metric and the bound by which it may
// worsen before -compare calls it a regression: Rel as a share of the
// larger of the two values, Abs as a difference so small it is never one.
// Gated metrics are the BENCHMARK.json end_to_end list; the others are
// compared by -compare only (see README "What BENCHMARK.json gates").
type metricDef struct {
	Name, Unit, Better string
	Rel, Abs           float64
	Gated              bool
}

// endToEndDefs is the fixed, always-reported metric set: the same names on
// every workload, so a diagnosis starts from the table and not from a
// profile (the LASSi argument, PAPERS.md).
var endToEndDefs = []metricDef{
	{"ops_per_s", "op/s", "higher", 0.10, 0, true},
	{"op_p50_us", "us", "lower", 0.10, 0, true},
	{"op_p90_us", "us", "lower", 0.15, 0, true},
	{"peak_rss_mb", "MiB", "lower", 0.15, 0, true},
	{"setup_s", "s", "lower", 0.25, 0.25, true},
	{"allocs_per_op", "allocs/op", "lower", 0.02, 0.5, false},
	{"wire_bytes_per_req", "B/req", "lower", 0.005, 0, false},
	{"error_rate", "fraction", "lower", 0, 0, false},
}

type layerDef struct{ Name, Unit, Better string }

// perLayerDefs is the BENCHMARK.json per_layer list: reported by a traced
// run, never gated. A layer the workload does not execute reports 0.
var perLayerDefs = []layerDef{
	{"floor.loopback_rtt_p50_us", "us", "lower"},
	{"floor.loopback_rtt_p90_us", "us", "lower"},

	{"client.inform_p50_us", "us", "lower"},
	{"client.wait_p50_us", "us", "lower"},
	{"client.release_p50_us", "us", "lower"},
	{"client.end_p50_us", "us", "lower"},
	{"client.cycle_p99_us", "us", "lower"},
	{"client.cycle_pmax10_us", "us", "lower"},
	{"client.register_p50_us", "us", "lower"},
	{"client.wait_share", "fraction", "lower"},

	{"wire.encode_ns_per_req", "ns", "lower"},
	{"wire.decode_ns_per_req", "ns", "lower"},
	{"wire.bytes_per_req", "B/req", "lower"},
	{"wire.allocs_per_req", "allocs/req", "lower"},

	{"wirebin.encode_ns_per_req", "ns", "lower"},
	{"wirebin.decode_ns_per_req", "ns", "lower"},
	{"wirebin.bytes_per_req", "B/req", "lower"},
	{"wirebin.mux_bytes_per_req", "B/req", "lower"},
	{"wirebin.allocs_per_req", "allocs/req", "lower"},

	{"server.bytes_in_per_req", "B/req", "lower"},
	{"server.bytes_out_per_req", "B/req", "lower"},
	{"server.mux_frames_per_flush", "count", "higher"},
	{"server.arbitrations_per_grant", "count", "lower"},
	{"server.waits_deferred_share", "fraction", "lower"},
	{"server.wait_p50_us", "us", "lower"},
	{"server.hold_p50_us", "us", "lower"},
	{"server.queue_depth_max", "count", "lower"},
	{"server.sheds_total", "count", "lower"},
	{"server.rate_limited_total", "count", "lower"},
	{"server.slow_disconnects_total", "count", "lower"},
	{"server.stats_ms", "ms", "lower"},

	{"core.arbitrate_ns_apps1", "ns", "lower"},
	{"core.arbitrate_ns_apps4", "ns", "lower"},
	{"core.arbitrate_ns_apps64", "ns", "lower"},
	{"core.allocs_per_arbitrate", "allocs/op", "lower"},
	{"core.shard_lookup_ns", "ns", "lower"},

	{"trace.record_ns_per_event", "ns", "lower"},
	{"trace.bytes_per_event", "B", "lower"},
	{"trace.dropped", "count", "lower"},
	{"trace.read_events_per_s", "1/s", "higher"},

	{"replay.under_events_per_s", "1/s", "higher"},
	{"replay.compare_ms", "ms", "lower"},
	{"replay.verify_events_per_s", "1/s", "higher"},
	{"replay.op_p99_us", "us", "lower"},

	{"obs.render_ms", "ms", "lower"},
	{"obs.observe_ns", "ns", "lower"},

	{"sim.schedule_ns_per_event", "ns", "lower"},
	{"sim.post_ns_per_event", "ns", "lower"},
	{"fabric.reassign_ns", "ns", "lower"},
	{"fluid.contention_us", "us", "lower"},
	{"pfs.write_us", "us", "lower"},

	{"platform.run_us_per_point", "us", "lower"},
	{"platform.acquire_us", "us", "lower"},
	{"delta.sweep_us_per_point", "us", "lower"},
	{"delta.allocs_per_sweep", "allocs/op", "lower"},
	{"delta.op_p99_us", "us", "lower"},

	{"allocs_per_op", "allocs/op", "lower"},
	{"wire_bytes_per_req", "B/req", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}

var metricUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range endToEndDefs {
		m[d.Name] = d.Unit
	}
	for _, d := range perLayerDefs {
		m[d.Name] = d.Unit
	}
	return m
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet is what one run measured, by metric name.
type metricSet map[string]metricValue

// set records a measurement under a defined name; an undefined name is a
// bug in the benchmark, caught by the smoke test.
func (m metricSet) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not defined in metrics.go", name))
	}
	m[name] = metricValue{Value: v, Unit: unit}
}

// ratio is a/b, 0 when b is 0 (a share of nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
