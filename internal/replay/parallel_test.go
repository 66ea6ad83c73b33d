package replay

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/replay/replaytest"
	"repro/internal/trace"
)

// atGOMAXPROCS runs f with the given number of Ps and restores the setting.
func atGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestCompareSameAtEveryGOMAXPROCS: how many workers share a replay's cells
// is invisible in its results — every Flip, wait, per-app row and the
// recommendation are those of the one-P run, where the caller's goroutine
// replays every cell in order by itself. Run under -race this is also the
// check that the cells share nothing they write.
func TestCompareSameAtEveryGOMAXPROCS(t *testing.T) {
	for _, tr := range []*trace.Trace{replaytest.Trace(64, 4, 20), replaytest.Trace(12, 2, 6)} {
		policies := StandardPolicies(tr.Header, -1)
		study := func() (c Comparison, unders []Result) {
			c, err := Compare(tr, policies)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range policies {
				res, err := Under(tr, p)
				if err != nil {
					t.Fatal(err)
				}
				unders = append(unders, res)
			}
			return c, unders
		}
		var wantC Comparison
		var wantU []Result
		atGOMAXPROCS(1, func() { wantC, wantU = study() })
		if len(wantC.Outcomes) != 5 || wantC.Outcomes[3].Arbitrations <= wantC.Outcomes[0].Arbitrations {
			t.Fatalf("%d outcomes: the study must include the model policies", len(wantC.Outcomes))
		}
		for _, procs := range []int{2, 8} {
			atGOMAXPROCS(procs, func() {
				gotC, gotU := study()
				if !reflect.DeepEqual(gotC, wantC) {
					t.Errorf("%d events, GOMAXPROCS=%d: Compare differs from the one-P comparison", len(tr.Events), procs)
				}
				if !reflect.DeepEqual(gotU, wantU) {
					t.Errorf("%d events, GOMAXPROCS=%d: Under differs from the one-P replays", len(tr.Events), procs)
				}
			})
		}
	}
}

// TestCompareFirstErrorInOrder: two streams fail, the second at once and the
// first only at its last event, so with more than one worker the later cell's
// failure is the earlier in time. The error returned is still the first in
// (policy, stream) order — the baseline's, on the first target.
func TestCompareFirstErrorInOrder(t *testing.T) {
	tr := replaytest.Trace(8, 2, 4)
	evs := tr.Events
	last := evs[len(evs)-1].Time
	// Sessions 1-4 register on ost-0 and 5-8 on ost-1, all at time 0.
	tr.Events = append([]trace.Event{}, evs[:8]...)
	tr.Events = append(tr.Events, trace.Event{Type: trace.EvRegister, SID: 5, App: "again", Cores: 1, Target: "ost-1"})
	tr.Events = append(tr.Events, evs[8:]...)
	tr.Events = append(tr.Events, trace.Event{Type: trace.EvRegister, Time: last, SID: 1, App: "again", Cores: 1, Target: "ost-0"})
	policies := StandardPolicies(tr.Header, -1)

	var want string
	atGOMAXPROCS(1, func() {
		_, err := Compare(tr, policies)
		if err == nil || !strings.Contains(err.Error(), "duplicate sid 1") {
			t.Fatalf("one-P Compare: %v, want ost-0's duplicate sid 1", err)
		}
		want = err.Error()
	})
	for _, procs := range []int{1, 2, 8} {
		atGOMAXPROCS(procs, func() {
			for run := 0; run < 20; run++ {
				if _, err := Compare(tr, policies); err == nil || err.Error() != want {
					t.Fatalf("GOMAXPROCS=%d run %d: Compare: %v, want %s", procs, run, err, want)
				}
				if _, err := Under(tr, policies[3]); err == nil || err.Error() != want {
					t.Fatalf("GOMAXPROCS=%d run %d: Under: %v, want %s", procs, run, err, want)
				}
			}
		})
	}
}

// traceHash covers everything replay reads of a trace: every field of every
// event, each Info map by sorted key (as fmt prints maps).
func traceHash(tr *trace.Trace) uint64 {
	h := fnv.New64a()
	fmt.Fprintln(h, tr.Header, tr.Dropped, tr.Truncated, len(tr.Events))
	for i := range tr.Events {
		fmt.Fprintln(h, tr.Events[i])
	}
	return h.Sum64()
}

// TestReplayLeavesTraceUntouched: the trace is read-only to replay.
func TestReplayLeavesTraceUntouched(t *testing.T) {
	atGOMAXPROCS(4, func() {
		for name, tr := range map[string]*trace.Trace{
			"daemon":     replaytest.Trace(16, 4, 5),
			"two-target": twoTargetTrace(),
		} {
			before := traceHash(tr)
			if _, err := Compare(tr, StandardPolicies(tr.Header, -1)); err != nil {
				t.Fatalf("%s: Compare: %v", name, err)
			}
			if _, err := Verify(tr); err != nil {
				t.Fatalf("%s: Verify: %v", name, err)
			}
			if traceHash(tr) != before {
				t.Errorf("%s: replay changed the trace it was given", name)
			}
		}
	})
}
