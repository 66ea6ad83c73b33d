package replay

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"repro/internal/replay/replaytest"
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
// rendered before DynamicPolicy moved to the indexed path and the replay
// buffers were sized up front: those were performance changes, so not one
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
