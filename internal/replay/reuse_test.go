package replay

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/replay/replaytest"
	"repro/internal/trace"
)

// reuseCalls is a mix of replay calls over differently shaped traces — 64
// applications on four targets, 12 on two, and a calciomd recording — each
// returning its whole result (or its error) for comparison, and what each
// returned when first made.
func reuseCalls(t *testing.T) (calls []func() any, first []any) {
	rec, err := trace.Load("testdata/daemon_4targets.trace")
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*trace.Trace{replaytest.Trace(64, 4, 20), replaytest.Trace(12, 2, 6), rec} {
		policies := StandardPolicies(tr.Header, -1)
		calls = append(calls, func() any {
			c, err := Compare(tr, policies)
			return []any{c, fmt.Sprint(err)}
		})
		for _, p := range policies {
			calls = append(calls, func() any {
				res, err := Under(tr, p)
				return []any{res, fmt.Sprint(err)}
			})
		}
		calls = append(calls, func() any {
			v, err := Verify(tr)
			return []any{v, fmt.Sprint(err)}
		})
	}
	for _, call := range calls {
		first = append(first, call())
	}
	return calls, first
}

// runShuffled makes every call rounds times in an order drawn from seed and
// reports each result that differs from want, the call's first result.
func runShuffled(t *testing.T, calls []func() any, want []any, seed uint64, rounds int) {
	rng := rand.New(rand.NewPCG(seed, 0))
	for r := 0; r < rounds; r++ {
		for _, i := range rng.Perm(len(calls)) {
			if got := calls[i](); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("seed %d round %d: call %d returned something other than its first result", seed, r, i)
			}
		}
	}
}

// TestReplayReuseHygiene: replays borrow their machines' working memory
// from earlier ones — of other traces, other shapes, other modes — and must
// not see any of it. Each call, made again in shuffled order among the
// others, returns exactly its first result.
func TestReplayReuseHygiene(t *testing.T) {
	calls, want := reuseCalls(t)
	runShuffled(t, calls, want, 1, 2)
}

// TestReplayReuseHygieneConcurrent: the same with two sequences at once,
// their replays borrowing from and returning to one pool, on four Ps.
func TestReplayReuseHygieneConcurrent(t *testing.T) {
	calls, want := reuseCalls(t)
	atGOMAXPROCS(4, func() {
		var wg sync.WaitGroup
		for seed := uint64(2); seed <= 3; seed++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				runShuffled(t, calls, want, seed, 1)
			}()
		}
		wg.Wait()
	})
}

// TestCompareReusesCellMemory: once warm, a what-if study allocates little
// more than what it hands back — the compiled streams and the Flips, Waits
// and Apps of the Comparison it returns. The cells' session tables, logs and
// app rows are borrowed, not allocated per policy and target. The average
// over many studies absorbs the collector emptying the pool now and then.
// At one P the cells run inline on the caller, so the count depends neither
// on how many machines are out at once nor on which P's share of the pool
// each went back to.
func TestCompareReusesCellMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops some of what goes back to a sync.Pool")
	}
	tr := replaytest.Trace(64, 4, 20)
	policies := StandardPolicies(tr.Header, -1)
	var c Comparison
	var perStudy float64
	atGOMAXPROCS(1, func() {
		var err error
		if c, err = Compare(tr, policies); err != nil {
			t.Fatal(err)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := Compare(tr, policies); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perStudy = float64(after.TotalAlloc-before.TotalAlloc) / runs
	})

	var kept uintptr
	for _, st := range compile(tr) {
		kept += uintptr(len(st.steps))*unsafe.Sizeof(step{}) +
			uintptr(len(st.regs))*unsafe.Sizeof(registration{}) +
			uintptr(len(st.infos))*unsafe.Sizeof(core.ParsedInfo{})
	}
	// Every Result the Comparison holds, the outcome of the recording
	// policy included, though it shares the baseline's slices.
	results := []*Result{&c.Baseline}
	for i := range c.Outcomes {
		results = append(results, &c.Outcomes[i].Result)
	}
	for _, r := range results {
		kept += uintptr(len(r.Flips))*unsafe.Sizeof(Flip{}) +
			uintptr(len(r.Waits))*unsafe.Sizeof(float64(0)) +
			uintptr(len(r.Apps))*unsafe.Sizeof(AppResult{})
	}
	t.Logf("%.0f bytes allocated per study against %d handed back", perStudy, kept)
	if perStudy > 1.25*float64(kept) {
		t.Errorf("a study allocates %.0f bytes, more than 1.25 x the %d bytes of its streams and results", perStudy, kept)
	}
}
