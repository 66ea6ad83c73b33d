package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(2, func() { got = append(got, 2) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(3, func() { got = append(got, 3) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Fatalf("final clock = %v, want 3", e.Now())
	}
}

func TestScheduleTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Schedule(0.5, func() { e.Cancel(ev) })
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("event should report cancelled")
	}
	// Cancelling again is a no-op.
	e.Cancel(ev)
}

func TestRunUntilHorizon(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++ })
	e.Schedule(5, func() { count++ })
	end := e.RunUntil(2)
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
	if end != 2 {
		t.Fatalf("clock = %v, want 2", end)
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count after Run = %d, want 2", count)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative delay")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestPastSchedulingPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling in the past")
		}
	}()
	e.At(1, func() {})
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, func() { count++; e.Stop() })
	e.Schedule(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 after Stop", count)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEngine()
	var wake []float64
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(1)
		wake = append(wake, p.Now())
		p.Sleep(2.5)
		wake = append(wake, p.Now())
	})
	e.Run()
	if len(wake) != 2 || wake[0] != 1 || wake[1] != 3.5 {
		t.Fatalf("wake times = %v, want [1 3.5]", wake)
	}
}

func TestProcSleepZeroYields(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestGoAt(t *testing.T) {
	e := NewEngine()
	started := -1.0
	e.GoAt(7, "late", func(p *Proc) { started = p.Now() })
	e.Run()
	if started != 7 {
		t.Fatalf("start = %v, want 7", started)
	}
}

func TestSuspendResume(t *testing.T) {
	e := NewEngine()
	var r *Resumer
	done := -1.0
	e.Go("waiter", func(p *Proc) {
		r = p.Suspend()
		r.Park()
		done = p.Now()
	})
	e.Schedule(3, func() { r.Resume() })
	e.Run()
	if done != 3 {
		t.Fatalf("resumed at %v, want 3", done)
	}
	r.Resume() // idempotent
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	wg.Add(2)
	done := -1.0
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		done = p.Now()
	})
	e.Schedule(1, wg.Done)
	e.Schedule(4, wg.Done)
	e.Run()
	if done != 4 {
		t.Fatalf("wait released at %v, want 4", done)
	}
	// Waiting on a zero group returns immediately.
	second := -1.0
	e.Go("fast", func(p *Proc) {
		wg.Wait(p)
		second = p.Now()
	})
	e.Run()
	if second != 4 {
		t.Fatalf("zero-group wait at %v, want 4", second)
	}
}

func TestWaitGroupNegativePanics(t *testing.T) {
	e := NewEngine()
	wg := NewWaitGroup(e)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on negative counter")
		}
	}()
	wg.Done()
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Go("stuck", func(p *Proc) {
		p.Suspend().Park() // nobody will resume it
	})
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e.Run()
}

func TestDeterminismManyProcs(t *testing.T) {
	trace := func(seed int64) []float64 {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var ts []float64
		for i := 0; i < 50; i++ {
			d := rng.Float64() * 10
			e.Go("p", func(p *Proc) {
				p.Sleep(d)
				ts = append(ts, p.Now())
				p.Sleep(d / 2)
				ts = append(ts, p.Now())
			})
		}
		e.Run()
		return ts
	}
	a := trace(42)
	b := trace(42)
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: events always fire in nondecreasing time order, whatever the
// schedule.
func TestPropertyEventOrder(t *testing.T) {
	f := func(delays []float64) bool {
		e := NewEngine()
		var fired []float64
		n := 0
		for _, d := range delays {
			if d < 0 {
				d = -d
			}
			if d > 1e9 {
				continue
			}
			e.Schedule(d, func() { fired = append(fired, e.Now()) })
			n++
		}
		e.Run()
		if len(fired) != n {
			return false
		}
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: nested scheduling from inside events preserves ordering.
func TestPropertyNestedSchedule(t *testing.T) {
	f := func(seed int64) bool {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var fired []float64
		var spawn func(depth int)
		spawn = func(depth int) {
			if depth > 3 {
				return
			}
			e.Schedule(rng.Float64(), func() {
				fired = append(fired, e.Now())
				spawn(depth + 1)
				spawn(depth + 1)
			})
		}
		spawn(0)
		e.Run()
		return sort.Float64sAreSorted(fired)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTracer(t *testing.T) {
	e := NewEngine()
	var lines []string
	e.SetTracer(TracerFunc(func(now float64, format string, args ...any) {
		lines = append(lines, fmt.Sprintf("%.1f ", now)+fmt.Sprintf(format, args...))
	}))
	e.Schedule(2, func() { e.Tracef("fired %d", 42) })
	e.Run()
	if len(lines) != 1 || lines[0] != "2.0 fired 42" {
		t.Fatalf("trace lines = %q", lines)
	}
	e.SetTracer(nil)
	e.Tracef("ignored") // must not panic with nil tracer
}

func TestPending(t *testing.T) {
	e := NewEngine()
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("pending after run = %d", e.Pending())
	}
}

func TestAtRejectsNaN(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic scheduling at NaN")
		}
	}()
	e.At(math.NaN(), func() {})
}

// TestCancelAfterPoolReuse pins down the safety contract of the event free
// list: a handle detaches from its record when the event fires or is
// cancelled, so a stale Cancel must never hit the record's next occupant.
func TestCancelAfterPoolReuse(t *testing.T) {
	e := NewEngine()
	ev1 := e.Schedule(1, func() {})
	e.Run()
	if !ev1.Cancelled() {
		t.Fatal("fired event should report cancelled")
	}
	// ev2 reuses ev1's pooled record.
	fired := false
	ev2 := e.Schedule(1, func() { fired = true })
	e.Cancel(ev1) // stale: must not touch ev2
	e.Run()
	if !fired {
		t.Fatal("stale Cancel of a fired handle cancelled the reused record")
	}
	// Same for a cancelled (rather than fired) handle.
	ev3 := e.Schedule(1, func() {})
	e.Cancel(ev3)
	fired = false
	ev4 := e.Schedule(1, func() { fired = true })
	e.Cancel(ev3) // stale double-cancel
	e.Run()
	if !fired {
		t.Fatal("stale double-Cancel cancelled the reused record")
	}
	_ = ev2
	_ = ev4
}

// TestPostFastPath checks that Post interleaves with same-instant heap
// events in sequence order, exactly like Schedule(0, ...).
func TestPostFastPath(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Post(func() { got = append(got, 0) })
	e.Schedule(0, func() { got = append(got, 1) })
	e.Post(func() { got = append(got, 2) })
	if e.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", e.Pending())
	}
	e.Run()
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestPostNested checks posts made from inside posted callbacks run at the
// same instant, after everything already queued.
func TestPostNested(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Post(func() {
		got = append(got, 0)
		e.Post(func() { got = append(got, 2) })
	})
	e.Post(func() { got = append(got, 1) })
	e.Schedule(1, func() { got = append(got, 3) })
	e.Run()
	want := []int{0, 1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 1 {
		t.Fatalf("clock = %v, want 1", e.Now())
	}
}

// TestPostBeforeEarlierHeapEvent: a post at t=5 must still run before a
// heap event at t=7.
func TestPostBeforeEarlierHeapEvent(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(5, func() { e.Post(func() { got = append(got, "post@5") }) })
	e.Schedule(7, func() { got = append(got, "heap@7") })
	e.Run()
	if len(got) != 2 || got[0] != "post@5" || got[1] != "heap@7" {
		t.Fatalf("order = %v", got)
	}
}

func TestTimerRescheduleAndCancel(t *testing.T) {
	e := NewEngine()
	var fired []float64
	tm := e.NewTimer(func() { fired = append(fired, e.Now()) })
	if tm.Pending() {
		t.Fatal("new timer should not be pending")
	}
	tm.Schedule(5)
	tm.Schedule(2) // replaces the pending occurrence
	if !tm.Pending() || tm.When() != 2 {
		t.Fatalf("pending=%v when=%v, want true/2", tm.Pending(), tm.When())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("fired = %v, want [2]", fired)
	}
	// Rearm after firing: the owned record is reusable.
	tm.Schedule(3)
	tm.Cancel()
	tm.Cancel() // double cancel is a no-op
	e.Run()
	if len(fired) != 1 {
		t.Fatalf("cancelled timer fired: %v", fired)
	}
	tm.ScheduleAt(e.Now() + 4)
	e.Run()
	if len(fired) != 2 || fired[1] != 6 {
		t.Fatalf("fired = %v, want [2 6]", fired)
	}
}

func TestTimerOrderingMatchesSequence(t *testing.T) {
	e := NewEngine()
	var got []int
	tm := e.NewTimer(func() { got = append(got, 0) })
	tm.Schedule(1)
	e.Schedule(1, func() { got = append(got, 1) })
	e.Run()
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("order = %v, want [0 1]", got)
	}
}

// TestScheduleSteadyStateDoesNotGrow exercises the free list: a long
// schedule/fire cycle must recycle records rather than accumulate them.
func TestScheduleSteadyStateDoesNotGrow(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10000; i++ {
		e.Schedule(1, func() {})
		e.Run()
	}
	if len(e.free) > 4 {
		t.Fatalf("free list grew to %d records; want a handful", len(e.free))
	}
}

// TestPostRespectsHorizon: posted callbacks belong to the instant they were
// posted at, so a RunUntil horizon already behind the clock must not fire
// them — they wait for the next run, exactly like a Schedule(0) event.
func TestPostRespectsHorizon(t *testing.T) {
	e := NewEngine()
	e.Schedule(5, func() {})
	e.RunUntil(5) // clock at 5
	fired := false
	e.Post(func() { fired = true })
	e.RunUntil(3) // horizon behind now: nothing may fire
	if fired {
		t.Fatal("post fired past the horizon")
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.Run()
	if !fired {
		t.Fatal("post lost after horizon-limited run")
	}
}

func TestResetClearsStateKeepsPools(t *testing.T) {
	eng := NewEngine()
	var fired []float64
	run := func() []float64 {
		fired = fired[:0]
		eng.Schedule(2, func() { fired = append(fired, eng.Now()) })
		eng.Schedule(1, func() {
			fired = append(fired, eng.Now())
			eng.Post(func() { fired = append(fired, -eng.Now()) })
		})
		eng.Run()
		return append([]float64(nil), fired...)
	}
	first := run()

	// Leave debris behind: pending events, a posted callback, a pending
	// timer, an advanced clock — Reset must clear all of it.
	ev := eng.Schedule(5, func() { t.Error("cancelled-epoch event fired") })
	eng.Post(func() { t.Error("cancelled-epoch post fired") })
	tm := eng.NewTimer(func() { t.Error("cancelled-epoch timer fired") })
	tm.Schedule(3)
	eng.Reset()
	if eng.Now() != 0 || eng.Pending() != 0 {
		t.Fatalf("after Reset: now=%v pending=%d", eng.Now(), eng.Pending())
	}
	if tm.Pending() {
		t.Fatal("timer still pending after Reset")
	}
	eng.Cancel(ev) // stale handle must stay a harmless no-op
	tm.Cancel()

	second := run()
	if len(first) != len(second) {
		t.Fatalf("replay diverged: %v vs %v", first, second)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, first, second)
		}
	}
	// The timer must be re-armable after a reset.
	armed := false
	tm2 := eng.NewTimer(func() { armed = true })
	tm2.Schedule(1)
	eng.Run()
	if !armed {
		t.Fatal("timer did not fire after reset")
	}
}

func TestResetWithLiveProcsPanics(t *testing.T) {
	eng := NewEngine()
	eng.Go("p", func(p *Proc) { p.Suspend().Park() })
	eng.RunUntil(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng.Reset()
}

// TestResetReusesRecords pins the point of Reset: after a warm-up run, a
// reset engine replays the same schedule out of its record free list. Only
// the 16-byte cancellation handles remain (they are deliberately not pooled
// — stale-handle safety), so the reset replay must allocate at most one
// handle per Schedule, strictly less than a fresh engine pays.
func TestResetReusesRecords(t *testing.T) {
	const events = 64
	load := func(eng *Engine) {
		for i := 0; i < events; i++ {
			eng.Schedule(float64(i%7), func() {})
		}
		eng.Run()
	}
	fresh := testing.AllocsPerRun(10, func() {
		load(NewEngine())
	})
	eng := NewEngine()
	load(eng)
	reset := testing.AllocsPerRun(10, func() {
		eng.Reset()
		load(eng)
	})
	if reset > events+1 {
		t.Fatalf("reset+replay allocates %.1f/run, want <= %d (handles only)", reset, events+1)
	}
	if reset >= fresh {
		t.Fatalf("reset replay (%.1f allocs) not cheaper than fresh engine (%.1f)", reset, fresh)
	}
}

// TestAfterInterleavesLikeSchedule pins what bit-identical sweeps rest on:
// the handle-free After takes the sequence number Schedule would have taken,
// so a schedule mixing After, Schedule, At, Post and Timers — with most
// times tied, and callbacks scheduling more of the same — fires in exactly
// the order of the same schedule made with Schedule alone.
func TestAfterInterleavesLikeSchedule(t *testing.T) {
	run := func(seed int64, mixed bool) []int {
		e := NewEngine()
		rng := rand.New(rand.NewSource(seed))
		var fired []int
		next := 0
		var add func(depth int)
		add = func(depth int) {
			id := next
			next++
			delay := float64(rng.Intn(3)) // 0, 1 or 2: ties everywhere
			how := rng.Intn(5)
			fn := func() {
				fired = append(fired, id)
				if depth < 3 {
					for n := rng.Intn(3); n > 0; n-- {
						add(depth + 1)
					}
				}
			}
			switch {
			case !mixed:
				e.Schedule(delay, fn)
			case how == 0:
				e.Schedule(delay, fn)
			case how == 1:
				e.At(e.Now()+delay, fn)
			case how == 2 && delay == 0:
				e.Post(fn)
			case how == 3:
				e.NewTimer(fn).Schedule(delay) // one occurrence each
			default:
				e.After(delay, fn)
			}
		}
		for i := 0; i < 40; i++ {
			add(0)
		}
		e.Run()
		return fired
	}
	for seed := int64(1); seed <= 20; seed++ {
		want, got := run(seed, false), run(seed, true)
		if len(want) < 40 || !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: mixed schedule fired\n%v\nSchedule alone\n%v", seed, got, want)
		}
	}
}

// TestAfterAllocFree: with the record free list warm, After allocates
// nothing — the handle is what a Schedule costs.
func TestAfterAllocFree(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	e.After(1, nop)
	e.Run()
	if allocs := testing.AllocsPerRun(100, func() { e.After(1, nop); e.Run() }); allocs != 0 {
		t.Fatalf("After allocates %.1f objects per event, want 0", allocs)
	}
}
