package replay

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/replay/replaytest"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from this tree's output")

// renderStudy prints a comparison the way calciom-replay -apps does — the
// policy table, then each policy's per-application rows — plus, per policy,
// the arbitration count and a hash of the whole authorization-flip sequence,
// so that one decision taken differently anywhere in the replay shows.
func renderStudy(c *Comparison) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%-22s %7s %5s %5s %10s %10s %10s %10s %10s %10s %8s %10s\n",
		"policy", "grants", "uns", "abrt", "wait_tot", "wait_p99", "wait_max", "convoy", "protocol", "overlap", "sumI", "cpu_sec")
	for i := range c.Outcomes {
		o := &c.Outcomes[i]
		mark := " "
		if i == c.Best {
			mark = "*"
		}
		fmt.Fprintf(&b, "%-21s%s %7d %5d %5d %9.3fs %9.4fs %9.4fs %9.3fs %9.3fs %9.3fs %8.3f %10.1f\n",
			o.Policy, mark, o.GrantsServed, o.Unserved, o.Aborted, o.TotalWaitS,
			o.WaitPercentile(99), o.MaxWait(), o.ConvoyWaitS, o.ProtocolWaitS,
			o.OverlapS, o.SumInterference, o.CPUSecondsWasted)
	}
	for i := range c.Outcomes {
		o := &c.Outcomes[i]
		h := fnv.New64a()
		for _, f := range o.Flips {
			fmt.Fprintln(h, f)
		}
		fmt.Fprintf(&b, "\napps under %s: arbitrations=%d flips=%d fnv64a=%016x\n", o.Policy, o.Arbitrations, len(o.Flips), h.Sum64())
		fmt.Fprintf(&b, "  %-24s %6s %7s %7s %10s %10s %10s %10s\n",
			"app", "cores", "phases", "grants", "io_s", "wait_s", "convoy_s", "proto_s")
		for _, a := range o.Apps {
			fmt.Fprintf(&b, "  %-24s %6d %7d %7d %10.3f %10.3f %10.3f %10.3f\n",
				a.Name, a.Cores, a.Phases, a.Grants, a.IOTimeS, a.WaitS, a.ConvoyWaitS, a.ProtocolWaitS)
		}
	}
	return b.Bytes()
}

// TestCompareGolden holds a whole what-if study — every standard policy, the
// model-based delay and dynamic ones included — to the bytes the tree
// rendered before DynamicPolicy decided in the Arbiter's scratch and the
// replay buffers were sized up front: those were performance changes, so not one
// decision, wait or estimate may differ.
func TestCompareGolden(t *testing.T) {
	tr := replaytest.Trace(12, 2, 6)
	c, err := Compare(tr, StandardPolicies(tr.Header, -1))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Outcomes) != 5 {
		t.Fatalf("%d policies compared, want 5: the header's model must bring delay and dynamic in", len(c.Outcomes))
	}
	got := renderStudy(&c)
	const path = "testdata/compare_12apps_2targets.golden"
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the study renders differently from %s:\n%s", path, got)
	}
}

// renderExact prints a result with every scalar at full precision (%v), the
// flip sequence and the wait durations as digests, and one %v row per
// application, so that a replay differing in one bit of one figure shows.
func renderExact(b *bytes.Buffer, label string, r *Result) {
	flips, waits := fnv.New64a(), fnv.New64a()
	for _, f := range r.Flips {
		fmt.Fprintln(flips, f)
	}
	for _, w := range r.Waits {
		fmt.Fprintln(waits, w)
	}
	fmt.Fprintf(b, "%s: policy=%v events=%v arbitrations=%v grants=%v immediate=%v deferred=%v wait=%v convoy=%v protocol=%v unserved=%v aborted=%v overlap=%v makespan=%v\n",
		label, r.Policy, r.Events, r.Arbitrations, r.GrantsServed, r.WaitsImmediate, r.WaitsDeferred,
		r.TotalWaitS, r.ConvoyWaitS, r.ProtocolWaitS, r.Unserved, r.Aborted, r.OverlapS, r.MakespanS)
	fmt.Fprintf(b, "%s: flips=%d fnv64a=%016x waits=%d fnv64a=%016x\n", label, len(r.Flips), flips.Sum64(), len(r.Waits), waits.Sum64())
	for _, a := range r.Apps {
		fmt.Fprintf(b, "  %v\n", a)
	}
}

// checkGolden compares got with testdata/name, or rewrites it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output renders differently from %s:\n%s", path, got)
	}
}

// TestCompareGoldenBench pins, bit for bit, a what-if study of the trace the
// replay benchmarks read — every Outcome field, every per-application row,
// each policy's flip sequence — and an exact reproduction check of a
// four-target daemon recording (calciomd under the delay policy, ten clients
// whose phases alternate between targets). Replay is rebuilt for speed from
// time to time; no figure may move when it is.
func TestCompareGoldenBench(t *testing.T) {
	tr := replaytest.Trace(64, 4, 20)
	c, err := Compare(tr, StandardPolicies(tr.Header, -1))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "recording=%v best=%v\n", c.Recording, c.Best)
	renderExact(&b, "baseline", &c.Baseline)
	for i := range c.Outcomes {
		o := &c.Outcomes[i]
		fmt.Fprintf(&b, "\noutcome %d: est_io=%v sum_interference=%v cpu_seconds=%v\n", i, o.EstIOTimeS, o.SumInterference, o.CPUSecondsWasted)
		renderExact(&b, fmt.Sprintf("outcome %d", i), &o.Result)
	}
	checkGolden(t, "compare_64apps_4targets.golden", b.Bytes())

	rec, err := trace.Load("testdata/daemon_4targets.trace")
	if err != nil {
		t.Fatal(err)
	}
	v, err := Verify(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Match || len(v.Shards) != 4 {
		t.Fatalf("verify: match=%v shards=%d (%s), want a match on 4 targets", v.Match, len(v.Shards), v.Mismatch)
	}
	b.Reset()
	recorded := fnv.New64a()
	for _, f := range v.Recorded {
		fmt.Fprintln(recorded, f)
	}
	fmt.Fprintf(&b, "match=%v mismatch=%q recorded=%d fnv64a=%016x\n", v.Match, v.Mismatch, len(v.Recorded), recorded.Sum64())
	for _, sh := range v.Shards {
		fmt.Fprintf(&b, "%+v\n", sh)
	}
	renderExact(&b, "verify", &v.Result)
	checkGolden(t, "verify_daemon_4targets.golden", b.Bytes())
}
