package delta

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/ decision-log goldens")

// goldenScenario is testScenario made asymmetric — A writes two files, B one
// and shows up 0.7 s into A's phase — so interrupt, delay and dynamic each
// take more than one kind of decision.
func goldenScenario() Scenario {
	sc := testScenario()
	sc.Apps[0].W.Files = 2
	return sc
}

// renderDecisions prints a decision log the way calciom-sim does.
func renderDecisions(log []core.DecisionRecord) string {
	var sb strings.Builder
	for _, d := range log {
		fmt.Fprintf(&sb, "  t=%8.3f  allowed=%-8v  %s\n", d.Time, d.Allowed, d.Reason)
	}
	return sb.String()
}

// TestDecisionLogGolden pins the bytes the figure reproductions and the CLIs
// print: the goldens were rendered by the implementation that formatted every
// reason eagerly on the map-based policy path (PR 12), and whatever carries a
// decision's reason since must print the same text.
func TestDecisionLogGolden(t *testing.T) {
	cases := []struct {
		name    string
		factory PolicyFactory
	}{
		{"fcfs", FCFS},
		{"interrupt", Interrupt},
		{"interfere", Interfere},
		{"delay", Delay(0.5)},
		{"dynamic", Dynamic(core.CPUSecondsWasted{}, false)},
	}
	sc := goldenScenario()
	for _, c := range cases {
		got := renderDecisions(sc.Run(c.factory, []float64{0, 0.7}).Decisions)
		path := filepath.Join("testdata", "decisions_"+c.name+".golden")
		if *updateGolden {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: decision log differs from %s:\n%s", c.name, path, got)
		}
	}
}
