package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func seq(n int) []int64 {
	v := make([]int64, n)
	for i := range v {
		v[i] = int64(i + 1)
	}
	return v
}

func TestPercentileNearestRank(t *testing.T) {
	hundred := seq(100)
	for _, c := range []struct {
		sorted []int64
		p      float64
		want   int64
	}{
		{hundred, 50, 50}, {hundred, 90, 90}, {hundred, 99, 99}, {hundred, 100, 100},
		{hundred, 0.5, 1}, {seq(5), 50, 3}, {seq(4), 50, 2}, {seq(1), 99, 1}, {nil, 50, 0},
	} {
		if got := percentile(c.sorted, c.p); got != c.want {
			t.Errorf("percentile(n=%d, p=%v) = %d, want %d", len(c.sorted), c.p, got, c.want)
		}
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	if _, _, ok := tailPercentile(seq(10)); ok {
		t.Error("10 samples cannot have 10 beyond any of them")
	}
	p, v, ok := tailPercentile(seq(11))
	if !ok || v != 1 || math.Abs(p-100.0/11) > 1e-9 {
		t.Errorf("n=11: got p=%v v=%d ok=%v, want the smallest sample", p, v, ok)
	}
	p, v, ok = tailPercentile(seq(1000))
	if !ok || v != 990 || p != 99 {
		t.Errorf("n=1000: got p=%v v=%d ok=%v, want p99 = 990", p, v, ok)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: spOp, Parent: -1, Start: 0, End: 100},
		{Name: spInform, Parent: 0, Start: 10, End: 30},
		{Name: spWait, Parent: 0, Start: 20, End: 50},       // overlaps the previous child
		{Name: spRender, Parent: 2, Start: 25, End: 45},     // grandchild: only its parent's concern
		{Name: spEnd, Parent: 0, Start: 90, End: 120},       // clipped to the parent
		{Name: spRelease, Parent: -1, Start: 200, End: 260}, // childless root
	}
	want := []int64{100 - 40 - 10, 20, 30 - 20, 20, 30, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spanNames[spans[i].Name], got[i], want[i])
		}
	}
	st := summarize([]*recorder{{spans: spans}})
	if st.total[spOp] != 100 || st.self[spOp] != 50 || st.p50us(spWait) != 0.03 {
		t.Errorf("summary: total %d self %d wait p50 %v", st.total[spOp], st.self[spOp], st.p50us(spWait))
	}
}

func TestScrapeRealRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	a := reg.Counter("calciomd_grants_total", "grants", obs.Label{Key: "target", Value: "t0"})
	b := reg.Counter("calciomd_grants_total", "grants", obs.Label{Key: "target", Value: `odd "name" 1`})
	reg.Counter("calciomd_grants_total_other", "not the same family").Add(1000)
	g := reg.Gauge("calciomd_queue_depth", "depth")
	f := reg.FloatCounter("calciomd_degraded_seconds_total", "seconds")
	h0 := reg.Histogram("calciomd_wait_seconds", "wait", obs.DefaultLatencyBuckets, obs.Label{Key: "target", Value: "t0"})
	h1 := reg.Histogram("calciomd_wait_seconds", "wait", obs.DefaultLatencyBuckets, obs.Label{Key: "target", Value: "t1"})
	a.Add(3)
	before, err := scrapeRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	a.Add(4)
	b.Add(5)
	g.Set(-2)
	f.Add(1.25)
	for i := 0; i < 50; i++ {
		h0.Observe(30e-6) // the (25us, 50us] bucket
		h1.Observe(3e-3)  // the (2.5ms, 5ms] bucket
	}
	h1.Observe(99) // beyond every bound
	now, err := scrapeRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	if got := now.sum("calciomd_grants_total"); got != 12 {
		t.Errorf("sum over label sets = %v, want 12 (the _other family must not match)", got)
	}
	d := now.sub(before)
	if got := d.sum("calciomd_grants_total"); got != 9 {
		t.Errorf("delta = %v, want 9", got)
	}
	if now["calciomd_queue_depth"] != -2 || now["calciomd_degraded_seconds_total"] != 1.25 {
		t.Errorf("gauge %v float counter %v", now["calciomd_queue_depth"], now["calciomd_degraded_seconds_total"])
	}
	if got := d.sum("calciomd_wait_seconds_count"); got != 101 {
		t.Errorf("histogram count = %v, want 101", got)
	}
	// Rank 50.5 of 101 is the first sample of the (2.5ms, 5ms] bucket.
	if q := d.histQuantile("calciomd_wait_seconds", 0.5); q <= 2.5e-3 || q > 5e-3 {
		t.Errorf("p50 = %v, want inside (2.5ms, 5ms]", q)
	}
	if q := d.histQuantile("calciomd_wait_seconds", 0.25); q <= 25e-6 || q > 50e-6 {
		t.Errorf("p25 = %v, want inside (25us, 50us]", q)
	}
	if q := d.histQuantile("calciomd_wait_seconds", 1); q != 10 {
		t.Errorf("p100 = %v, want the highest finite bound", q)
	}
	if q := before.histQuantile("calciomd_wait_seconds", 0.5); q != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", q)
	}
	if _, err := parseScrape("no_value_here\n"); err == nil {
		t.Error("malformed line accepted")
	}
}

func TestVerdict(t *testing.T) {
	def := func(name string) metricDef {
		for _, d := range endToEndDefs {
			if d.Name == name {
				return d
			}
		}
		t.Fatalf("no metric %q", name)
		return metricDef{}
	}
	nan := math.NaN()
	for _, c := range []struct {
		metric string
		a, b   float64
		want   string
	}{
		{"ops_per_s", 1000, 950, "ok"},       // 5% lower, bound 10%
		{"ops_per_s", 1000, 880, "worse"},    // 12% lower
		{"ops_per_s", 880, 1000, "ok"},       // the same pair swapped is an improvement
		{"op_p50_us", 60, 65, "ok"},          // 7.7% of the larger value
		{"op_p50_us", 60, 70, "worse"},       // 14%
		{"op_p90_us", 100, 117, "ok"},        // 14.5% of 117, bound 15%
		{"allocs_per_op", 0, 0, "ok"},        // the snippet's /a would be NaN here
		{"allocs_per_op", 0, 0.4, "ok"},      // under the 0.5 absolute floor
		{"allocs_per_op", 0, 1, "worse"},     // 100% of max(|a|,|b|)
		{"allocs_per_op", 100, 101, "ok"},    // 1%, bound 2%
		{"allocs_per_op", 100, 103, "worse"}, // 2.9%
		{"wire_bytes_per_req", 19.5, 19.55, "ok"},
		{"wire_bytes_per_req", 19.5, 19.7, "worse"}, // 1%: exact metrics get 0.5%
		{"wire_bytes_per_req", 19.7, 19.5, "ok"},
		{"error_rate", 0, 0, "ok"},
		{"error_rate", 0, 1e-6, "worse"}, // must stay 0
		{"setup_s", 0.01, 0.2, "ok"},     // twenty times slower but under the 0.25 s floor
		{"setup_s", 1, 1.5, "worse"},
		{"ops_per_s", nan, 1000, "unresolved"},
		{"ops_per_s", 1000, math.Inf(1), "unresolved"},
	} {
		if got := verdict(def(c.metric), c.a, c.b); got != c.want {
			t.Errorf("%s: %v -> %v = %s, want %s", c.metric, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ops float64, withSetup bool) string {
		m := metricSet{}
		m.set("ops_per_s", ops)
		m.set("error_rate", 0)
		if withSetup {
			m.set("setup_s", 0.01)
		}
		path := filepath.Join(dir, name)
		traced := &result{Workload: "plain-json", Traced: true, Metrics: metricSet{}}
		rf := resultFile{Runs: []*result{{Workload: "plain-json", Metrics: m}, traced}}
		if err := writeJSON(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, slower, noSetup := write("a.json", 1000, true), write("b.json", 800, true), write("c.json", 1000, false)
	var out bytes.Buffer
	clean, err := compareFiles(&out, a, a)
	if err != nil || !clean {
		t.Fatalf("a file against itself: clean=%v err=%v\n%s", clean, err, out.String())
	}
	// The other five workloads are absent from both files alike: nothing to
	// resolve, nothing reported.
	if n := strings.Count(out.String(), "\n"); n != 3+3 {
		t.Errorf("expected 3 header and 3 metric rows, got %d lines:\n%s", n, out.String())
	}
	out.Reset()
	if clean, _ := compareFiles(&out, a, slower); clean || !strings.Contains(out.String(), "0.8000  worse") {
		t.Errorf("20%% slower not flagged:\n%s", out.String())
	}
	out.Reset()
	if clean, _ := compareFiles(&out, a, noSetup); clean || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("metric missing on one side not unresolved:\n%s", out.String())
	}
}

// TestBenchmarkJSONInStep keeps the driver's description of the benchmark
// and the benchmark's own tables from drifting apart.
func TestBenchmarkJSONInStep(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] || len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %d: %q / %q out of step with workloads.go (or why over 200 chars)", i, w.Name, w.Why)
		}
	}
	var gated []metricDef
	for _, d := range endToEndDefs {
		if d.Gated {
			gated = append(gated, d)
		}
	}
	if len(doc.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics, want %d", len(doc.EndToEnd), len(gated))
	}
	for i, e := range doc.EndToEnd {
		d := gated[i]
		if e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound != gateBound {
			t.Errorf("end_to_end %d: %+v out of step with %+v", i, e, d)
		}
	}
	if len(doc.PerLayer) != len(perLayerDefs) {
		t.Fatalf("%d per_layer metrics, want %d", len(doc.PerLayer), len(perLayerDefs))
	}
	for i, e := range doc.PerLayer {
		if d := perLayerDefs[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better {
			t.Errorf("per_layer %d: %+v out of step with %+v", i, e, d)
		}
	}
}

// TestSmokeAllWorkloads runs every workload, untraced and traced, for a
// twentieth of a second, so the benchmark cannot rot unnoticed: every
// correctness gate must pass and every defined metric must be emitted.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			o := options{seed: 3, seconds: 0.05, traced: traced, setups: 1,
				microFor: time.Millisecond, outDir: t.TempDir()}
			res, err := runWorkload(name, o)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d checks=%+v",
					name, traced, res.Correct, res.Attempted, res.Failed, res.Checks)
			}
			var line struct {
				Correct           bool
				Attempted, Failed int
				Metrics           map[string]metricValue
			}
			if err := json.Unmarshal([]byte(driverLine(res)), &line); err != nil {
				t.Fatalf("%s traced=%v: driver line: %v", name, traced, err)
			}
			want := map[string]bool{}
			for _, d := range endToEndDefs {
				if !traced && d.Gated {
					want[d.Name] = true
				}
			}
			for _, d := range perLayerDefs {
				if traced {
					want[d.Name] = true
				}
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics on the driver line, want %d", name, traced, len(line.Metrics), len(want))
			}
			for n := range want {
				v, ok := line.Metrics[n]
				if !ok || v.Unit == "" || math.IsNaN(v.Value) {
					t.Errorf("%s traced=%v: metric %s missing or malformed (%+v)", name, traced, n, v)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, n, v.Value)
				}
			}
		}
	}
}
