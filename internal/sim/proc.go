package sim

import (
	"fmt"
	"iter"
)

// Proc is a simulated process: a coroutine that runs exclusively while the
// scheduler and every other process are suspended. Procs communicate and
// synchronize only through the engine, never through Go channels of their
// own, which keeps runs deterministic.
//
// Procs are pooled with their coroutine: when a body returns the proc parks
// on a retired list and Engine.Reset moves it to a free list, so a later
// Go/GoAt runs its body on the coroutine built with the proc — no goroutine
// spawned, no stack regrown, nothing allocated. A *Proc handle therefore
// stays valid — Done, Name — until the engine is reset, and must not be
// retained across a Reset.
//
// An idle coroutine references no Proc and hence no Engine, and a cleanup on
// the engine stops them all when it is collected, so discarding an engine
// leaks nothing; a proc abandoned mid-body (or launched and never run) pins
// its engine. A panic in a body surfaces from Run or RunUntil on the caller's
// goroutine with the proc marked done; its coroutine is gone, so the proc is
// not pooled again. A body must not call runtime.Goexit (no t.FailNow).
type Proc struct {
	eng  *Engine
	name string
	co   *coro
	done bool
	body func(p *Proc)

	// transferFn is p.transfer bound once, so posting wake-ups never
	// allocates a method-value closure.
	transferFn func()

	// wake is the reusable timer that resumes a sleeping proc. A proc has
	// at most one pending sleep, so a single owned record suffices and
	// sleeping never allocates. While the proc is not yet started, the same
	// timer carries the start event, so launching never allocates either.
	wake *Timer

	// resumer is the handle Suspend returns: a proc is parked in at most one
	// place, so one embedded handle serves every wait.
	resumer Resumer
}

// coro is the coroutine a pooled proc runs its bodies on: next switches into
// it and yield back, on the calling thread, with no trip through the Go
// scheduler. p is nil while it idles between bodies (see Proc).
type coro struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc
}

// coroSet lists every coroutine an engine built, for the engine's cleanup;
// it must not reference the engine.
type coroSet struct{ all []*coro }

func (s *coroSet) stop() {
	for _, c := range s.all {
		c.stop()
	}
}

// loop runs the proc's body, idles in yield until the next Go/GoAt on the
// pooled proc transfers in, and repeats until stopped.
func (c *coro) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.runBody()
		if !yield(struct{}{}) {
			return
		}
	}
}

func (c *coro) runBody() {
	p := c.p
	e := p.eng
	returned := false
	defer func() {
		c.p = nil
		p.done = true
		p.body = nil
		e.procs--
		if returned { // a panic ends the coroutine: nothing left to pool
			e.procRetired = append(e.procRetired, p)
		}
	}()
	p.body(p)
	returned = true
}

// Go starts body as a new process at the current time. The body runs when
// the engine processes the start event. Go may be called both from outside
// Run (to set up the simulation) and from inside a running process or event.
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	return e.GoAt(e.now, name, body)
}

// GoAt starts body as a new process at absolute time t. The proc comes from
// the engine's free pool when one is available, so in steady state
// (re-running a schedule after Reset) starting a process allocates nothing.
func (e *Engine) GoAt(t float64, name string, body func(p *Proc)) *Proc {
	p := e.getProc()
	p.name = name
	p.body = body
	p.done = false
	p.co.p = p
	e.procs++
	// The wake timer is necessarily unarmed here (the proc is not running),
	// so it can carry the start event.
	p.wake.ScheduleAt(t)
	return p
}

// getProc pops a pooled proc or builds a fresh one with its coroutine.
func (e *Engine) getProc() *Proc {
	if n := len(e.procFree); n > 0 {
		p := e.procFree[n-1]
		e.procFree[n-1] = nil
		e.procFree = e.procFree[:n-1]
		return p
	}
	c := &coro{}
	c.next, c.stop = iter.Pull(c.loop)
	e.coros.all = append(e.coros.all, c)
	p := &Proc{eng: e, co: c}
	p.transferFn = p.transfer
	p.wake = e.NewTimer(p.transferFn)
	return p
}

// transfer switches to the proc's coroutine and returns when it parks or its
// body ends. Must be called from scheduler context (inside an event callback).
func (p *Proc) transfer() { p.co.next() }

// park switches back to the scheduler until something transfers in again.
// Must be called from the proc's own body. A coroutine parked here is never
// stopped — its proc pins the engine — so yield's result says nothing.
func (p *Proc) park() { p.co.yield(struct{}{}) }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// Done reports whether the process body has returned.
func (p *Proc) Done() bool { return p.done }

// Sleep suspends the process for d seconds of virtual time.
func (p *Proc) Sleep(d float64) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Sleep(%v) from %q", d, p.name))
	}
	if d == 0 {
		// Still yield through the event queue so equal-time ordering is
		// consistent with other zero-delay work.
		p.eng.Post(p.transferFn)
		p.park()
		return
	}
	p.wake.Schedule(d)
	p.park()
}

// Suspend parks the process until Resume is called on the handle returned.
// The handle's Resume is idempotent: calls after the first are no-ops, so it
// is safe to race a timeout against another waker. The handle belongs to the
// process and is re-armed by its next Suspend, which allocates nothing; a
// waker must not keep it past the wait it was handed for.
//
//	h := p.Suspend()   // from another event: h.Resume()
func (p *Proc) Suspend() *Resumer {
	p.resumer = Resumer{p: p}
	return &p.resumer
}

// Resumer resumes a suspended process exactly once.
type Resumer struct {
	p     *Proc
	fired bool
}

// Resume schedules the process to continue. Safe to call multiple times;
// only the first call has an effect. Must not be called before the process
// has actually parked via Park.
func (r *Resumer) Resume() {
	if r.fired {
		return
	}
	r.fired = true
	r.p.eng.Post(r.p.transferFn)
}

// Park parks the process; it returns when the associated Resumer fires.
// Park must be called from the process's own body, after installing the
// Resumer where some event will find it.
func (r *Resumer) Park() { r.p.park() }

// WaitGroup counts outstanding activities and lets a process wait for zero.
type WaitGroup struct {
	eng   *Engine
	n     int
	conds []*Proc
}

// NewWaitGroup returns a wait group bound to the engine.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{eng: e} }

// Add increments the counter by delta (may be negative, like sync.WaitGroup).
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 && len(w.conds) > 0 {
		// Release waiters, keeping the backing array so a reused wait group
		// does not re-pay the waiter-list allocation. Post only enqueues, so
		// no new waiter can arrive while the loop runs.
		ws := w.conds
		for i, pr := range ws {
			w.eng.Post(pr.transferFn)
			ws[i] = nil
		}
		w.conds = ws[:0]
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Count returns the current counter value.
func (w *WaitGroup) Count() int { return w.n }

// Wait parks p until the counter reaches zero (immediately if already zero).
func (w *WaitGroup) Wait(p *Proc) {
	if w.n == 0 {
		return
	}
	w.conds = append(w.conds, p)
	p.park()
}
