package sim

import (
	"runtime"
	"testing"
	"time"
)

// twoSleeps is a body that parks twice, so a run switches into and out of
// its coroutine mid-body as well as at start and end.
func twoSleeps(p *Proc) {
	p.Sleep(1)
	p.Sleep(1)
}

// settledGoroutines collects what earlier tests' engines left parked and
// returns the goroutine count a test can use as its baseline. The cleanup
// that stops an engine's coroutines runs on the runtime's goroutine some time
// after the collection that found the engine unreachable, hence the rounds.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for round := 0; round < 50; round++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n && round >= 2 {
			break
		}
		n = m
	}
	return n
}

// TestDiscardedEngineReleasesCoroutines drops engines that ran and Reset
// several generations of procs: their idle coroutines must not outlive them.
func TestDiscardedEngineReleasesCoroutines(t *testing.T) {
	base := settledGoroutines()
	var e *Engine
	for i := 0; i < 10; i++ {
		e = NewEngine()
		for gen := 0; gen < 3; gen++ {
			for j := 0; j < 8+gen; j++ { // later generations grow the pool
				e.Go("p", twoSleeps)
			}
			e.Run()
			e.Reset()
		}
	}
	if n := runtime.NumGoroutine(); n < base+10 {
		t.Fatalf("%d goroutines with a 10-proc engine still live, baseline %d: nothing is parked, the test checks nothing", n, base)
	}
	e = nil
	if n := settledGoroutines(); n > base {
		t.Fatalf("%d goroutines after the engines were collected, baseline %d", n, base)
	}
}

func TestBodyPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ n int }
	e := NewEngine()
	p := e.Go("p", func(p *Proc) {
		p.Sleep(1)
		panic(boom{7})
	})
	got := func() (v any) {
		defer func() { v = recover() }()
		e.Run()
		return nil
	}()
	if got != (boom{7}) {
		t.Fatalf("Run panicked with %v, want the body's own value %v", got, boom{7})
	}
	if !p.Done() {
		t.Fatal("proc not done after its body panicked")
	}
	e.Reset() // no live process left behind

	// The engine is usable again, and the dead coroutine is not handed to
	// the next process.
	ran := false
	e.Go("q", func(p *Proc) { p.Sleep(1); ran = true })
	e.Run()
	if !ran {
		t.Fatal("body did not run on the engine after a panic and Reset")
	}
}

func TestProcReuseSpawnsNothing(t *testing.T) {
	e := NewEngine()
	cycle := func() {
		for j := 0; j < 8; j++ {
			e.Go("p", twoSleeps)
		}
		e.Run()
		e.Reset()
	}
	cycle() // builds the eight procs and their coroutines
	goroutines := settledGoroutines()
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
		t.Fatalf("%v allocs per Go/Run/Reset cycle on a warm engine, want 0", allocs)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("goroutines went from %d to %d over 1000 cycles", goroutines, n)
	}
}
