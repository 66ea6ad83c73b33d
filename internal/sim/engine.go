// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine advances a virtual clock by executing events in (time, sequence)
// order. Simulated processes are coroutines (iter.Pull) that the scheduler
// switches into and that switch back when they park, on the scheduler's own
// thread, so a simulation is fully deterministic regardless of GOMAXPROCS: at
// any instant either the scheduler or exactly one process is running. Each
// pooled Proc keeps its coroutine for every body it later runs; see Proc for
// what that means for a discarded engine and for a body that panics.
//
// Time is a float64 number of seconds. Ties are broken by event creation
// order, so schedules built in the same order replay identically. Pending
// events wait in a binary heap typed to the engine's records (eventHeap):
// it compares (time, sequence) inline, keeps each record's heap index for
// Cancel, and lets a re-armed Timer move its record in place.
//
// The engine is built for allocation-free steady-state operation: fired and
// cancelled event records return to a free list, zero-delay callbacks run
// through a reusable FIFO ring (Post), and recurring timeouts can reuse an
// owner-managed Timer instead of allocating a fresh event per occurrence.
package sim

import (
	"fmt"
	"math"
	"runtime"
)

// record is the engine-internal scheduled-callback state. Records are stored
// in the heap by pointer and recycled through a free list once they fire or
// are cancelled — except Timer-owned records, which belong to their Timer.
type record struct {
	time   float64
	seq    uint64
	fn     func()
	idx    int    // heap index; -1 when not queued
	handle *Event // attached cancellation handle, nil for Timer/Post records
	owned  bool   // Timer-owned: never returned to the engine free list
}

// Event is a cancellation handle for a callback scheduled with Schedule or
// At (After schedules without one). The handle detaches from its underlying
// record when the event fires or is cancelled, so holding (or re-cancelling)
// a stale handle is always safe even though records are pooled and reused.
type Event struct {
	time float64
	rec  *record
}

// Time returns the virtual time at which the event fires (or fired).
func (ev *Event) Time() float64 { return ev.time }

// Cancelled reports whether the event has fired or been cancelled.
func (ev *Event) Cancelled() bool { return ev.rec == nil }

// eventHeap is a binary min-heap of records ordered by (time, seq) that
// keeps every queued record's idx current. The order is strict and total —
// each record takes a fresh sequence number when it is queued — so the pop
// order depends only on what was queued, never on the heap's layout.
type eventHeap []*record

// before is the heap order: earlier time first, then creation order.
func before(a, b *record) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// push queues r.
func (h *eventHeap) push(r *record) {
	*h = append(*h, r)
	h.up(r, len(*h)-1)
}

// pop removes and returns the first record.
func (h *eventHeap) pop() *record {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if n > 0 {
		h.down(last, 0)
	}
	top.idx = -1
	return top
}

// remove takes the queued record r out of the heap.
func (h *eventHeap) remove(r *record) {
	s := *h
	i, n := r.idx, len(s)-1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if i != n {
		h.fix(last, i)
	}
	r.idx = -1
}

// fix restores the order around r, placed at index i, after its key changed
// or after it filled the hole a removal left at i.
func (h eventHeap) fix(r *record, i int) {
	if i > 0 && before(r, h[(i-1)/2]) {
		h.up(r, i)
	} else {
		h.down(r, i)
	}
}

// up moves r from the hole at index i towards the root until its parent
// comes before it, shifting the parents it passes down into the hole.
func (h eventHeap) up(r *record, i int) {
	for i > 0 {
		p := (i - 1) / 2
		q := h[p]
		if !before(r, q) {
			break
		}
		h[i], q.idx = q, i
		i = p
	}
	h[i], r.idx = r, i
}

// down moves r from the hole at index i towards the leaves until no child
// comes before it, shifting the smaller child up into the hole each step.
func (h eventHeap) down(r *record, i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && before(h[c+1], h[c]) {
			c++
		}
		q := h[c]
		if !before(q, r) {
			break
		}
		h[i], q.idx = q, i
		i = c
	}
	h[i], r.idx = r, i
}

// zeroCall is one entry of the zero-delay FIFO ring. Entries are created by
// Post at the current time and always run before the clock advances, ordered
// against heap events by the shared sequence counter.
type zeroCall struct {
	seq uint64
	fn  func()
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap

	// zq is the zero-delay callback ring: Post appends, the run loop
	// consumes from zhead. When drained it is reset in place, so steady
	// state does not allocate.
	zq    []zeroCall
	zhead int

	// free is the record free list. Records recycle through it when they
	// fire or are cancelled, so steady-state scheduling does not allocate.
	free []*record

	// procFree holds pooled procs (coroutine + wake timer + bound closure)
	// ready for reuse by Go/GoAt. Finished procs first land on procRetired —
	// not directly on the free list — so a *Proc handle returned by Go stays
	// valid (Done, Name) for the rest of the run; Reset moves retired procs
	// to the free list.
	procFree    []*Proc
	procRetired []*Proc

	// coros is what the cleanup registered in NewEngine stops once the
	// engine is unreachable.
	coros *coroSet

	procs   int // live (started, not finished) processes
	stopped bool
	tracer  Tracer
}

// Tracer receives a line for every traced simulation action. Nil disables
// tracing.
type Tracer interface {
	Trace(now float64, format string, args ...any)
}

// TracerFunc adapts a function to the Tracer interface.
type TracerFunc func(now float64, format string, args ...any)

// Trace implements Tracer.
func (f TracerFunc) Trace(now float64, format string, args ...any) { f(now, format, args...) }

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	e := &Engine{coros: new(coroSet)}
	runtime.AddCleanup(e, (*coroSet).stop, e.coros)
	return e
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// SetTracer installs a tracer for debugging; nil disables tracing.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// Tracing reports whether a tracer is installed. A caller whose Tracef
// arguments are not already interface values checks it first: the arguments
// are boxed before Tracef can see there is nobody to read them.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// Tracef emits a trace line if a tracer is installed.
func (e *Engine) Tracef(format string, args ...any) {
	if e.tracer != nil {
		e.tracer.Trace(e.now, format, args...)
	}
}

// newRecord pops a record from the free list, or allocates one.
func (e *Engine) newRecord() *record {
	if n := len(e.free); n > 0 {
		r := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return r
	}
	return &record{idx: -1}
}

// release detaches a record's handle and returns it to the free list.
// Timer-owned records are left to their owner.
func (e *Engine) release(r *record) {
	if r.handle != nil {
		r.handle.rec = nil
		r.handle = nil
	}
	r.fn = nil
	if !r.owned {
		e.free = append(e.free, r)
	}
}

// checkDelay panics on a negative or NaN delay: an error in the caller,
// surfaced immediately.
func checkDelay(delay float64) {
	if delay < 0 || math.IsNaN(delay) {
		panic(fmt.Sprintf("sim: negative or NaN delay %v", delay))
	}
}

// Schedule registers fn to run after delay seconds. A negative delay is an
// error in the caller; Schedule panics to surface the bug immediately.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	checkDelay(delay)
	return e.At(e.now+delay, fn)
}

// At registers fn to run at absolute time t, which must not be in the past
// and must not be NaN.
func (e *Engine) At(t float64, fn func()) *Event {
	r := e.push(t, fn)
	ev := &Event{time: t, rec: r}
	r.handle = ev
	return ev
}

// After is Schedule for a callback nobody will cancel: no handle, so with
// the record free list warm, no allocation. It takes its place in the event
// order exactly as Schedule does — same clock arithmetic, same sequence
// number — so replacing one by the other never reorders a simulation.
func (e *Engine) After(delay float64, fn func()) {
	checkDelay(delay)
	e.push(e.now+delay, fn)
}

// push queues a pooled record for fn at absolute time t.
func (e *Engine) push(t float64, fn func()) *record {
	if t < e.now || math.IsNaN(t) {
		panic(fmt.Sprintf("sim: scheduling in the past or at NaN: t=%v now=%v", t, e.now))
	}
	r := e.newRecord()
	r.time = t
	r.seq = e.seq
	r.fn = fn
	e.seq++
	e.events.push(r)
	return r
}

// Post registers fn to run at the current time, after every already-queued
// callback for this instant — exactly like Schedule(0, fn) but through a
// reusable FIFO ring with no handle and no allocation. It is the fast path
// for the overwhelmingly common fire-and-forget zero-delay callback
// (completion notifications, process wake-ups); use Schedule(0, fn) only
// when the callback might need cancelling.
func (e *Engine) Post(fn func()) {
	e.zq = append(e.zq, zeroCall{seq: e.seq, fn: fn})
	e.seq++
}

// Cancel removes a pending event. Cancelling an already-fired or cancelled
// event is a no-op: the handle detached from its (since recycled) record
// when the event fired, so a stale Cancel can never hit a reused record.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.rec == nil {
		return
	}
	r := ev.rec
	if r.idx >= 0 {
		e.events.remove(r)
	}
	e.release(r)
}

// Pending returns the number of callbacks waiting to fire, including posted
// zero-delay callbacks.
func (e *Engine) Pending() int { return len(e.events) + len(e.zq) - e.zhead }

// Reset returns the engine to a pristine state — clock at zero, sequence
// counter restarted, no pending events — while keeping its allocated
// capacity: the record free list, the heap's backing array and the Post
// ring survive, so a worker sweeping many simulation points can run every
// point on one engine and stop paying the per-run event allocations (the
// delta package's sweep workers do exactly this).
//
// Reset panics if live processes remain: their coroutines are parked on
// state the reset would orphan. Pending events are dropped, their
// cancellation handles detached (a stale Cancel stays a no-op) and
// Timer-owned records disarmed in place, so owners may re-arm their Timers
// after the reset. The tracer is kept.
func (e *Engine) Reset() {
	if e.procs > 0 {
		panic(fmt.Sprintf("sim: Reset with %d live process(es)", e.procs))
	}
	for _, r := range e.events {
		r.idx = -1
		if r.handle != nil {
			r.handle.rec = nil
			r.handle = nil
		}
		r.fn = nil
		if !r.owned {
			e.free = append(e.free, r)
		}
	}
	e.events = e.events[:0]
	for i := e.zhead; i < len(e.zq); i++ {
		e.zq[i].fn = nil
	}
	e.zq = e.zq[:0]
	e.zhead = 0
	e.procFree = append(e.procFree, e.procRetired...)
	for i := range e.procRetired {
		e.procRetired[i] = nil
	}
	e.procRetired = e.procRetired[:0]
	e.now = 0
	e.seq = 0
	e.stopped = false
}

// Stop makes Run return after the currently executing event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until none remain or Stop is called. It returns the
// final clock value.
func (e *Engine) Run() float64 { return e.RunUntil(math.Inf(1)) }

// RunUntil executes events with time <= horizon and, for a finite horizon,
// advances the clock all the way to it. It returns the final clock value.
//
// RunUntil panics if live processes remain blocked with no pending event to
// wake them and the horizon is infinite (a deadlock in the simulated
// system), because silently returning would make such bugs very hard to
// find. With a finite horizon, blocked processes may legitimately be waiting
// for signals scheduled later.
func (e *Engine) RunUntil(horizon float64) float64 {
	for !e.stopped {
		// Posted zero-delay callbacks live at the current instant; they
		// run before the clock can advance, interleaved with same-time
		// heap events by the shared sequence counter.
		if e.zhead < len(e.zq) && e.now <= horizon {
			zc := e.zq[e.zhead]
			if len(e.events) == 0 || e.events[0].time > e.now ||
				(e.events[0].time == e.now && zc.seq < e.events[0].seq) {
				e.zq[e.zhead].fn = nil
				e.zhead++
				if e.zhead == len(e.zq) {
					e.zq = e.zq[:0]
					e.zhead = 0
				}
				zc.fn()
				continue
			}
		}
		if len(e.events) == 0 {
			break
		}
		next := e.events[0]
		if next.time > horizon {
			break
		}
		e.events.pop()
		e.now = next.time
		fn := next.fn
		e.release(next)
		fn()
	}
	if !e.stopped && !math.IsInf(horizon, 1) {
		if e.now < horizon {
			e.now = horizon
		}
		return e.now
	}
	if !e.stopped && e.procs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events at t=%v", e.procs, e.now))
	}
	return e.now
}

// Timer is a reusable scheduled callback owned by its creator: one callback
// function, at most one pending occurrence, zero allocations to (re)arm.
// It is the tool for recurring timeout patterns — e.g. a contention model's
// "next completion" event that is cancelled and rescheduled on every rate
// change. Not safe for use from multiple goroutines (like the Engine).
type Timer struct {
	eng *Engine
	fn  func()
	rec record
}

// NewTimer returns an unarmed timer that will run fn each time it fires.
func (e *Engine) NewTimer(fn func()) *Timer {
	t := &Timer{eng: e, fn: fn}
	t.rec.owned = true
	t.rec.idx = -1
	return t
}

// Schedule arms the timer to fire after delay seconds, replacing any pending
// occurrence. Panics on negative or NaN delays, like Engine.Schedule.
func (t *Timer) Schedule(delay float64) {
	checkDelay(delay)
	t.ScheduleAt(t.eng.now + delay)
}

// ScheduleAt arms the timer to fire at absolute time at, replacing any
// pending occurrence. Panics on past or NaN times, like Engine.At.
func (t *Timer) ScheduleAt(at float64) {
	e := t.eng
	if at < e.now || math.IsNaN(at) {
		panic(fmt.Sprintf("sim: scheduling in the past or at NaN: t=%v now=%v", at, e.now))
	}
	r := &t.rec
	r.time = at
	r.seq = e.seq
	r.fn = t.fn
	e.seq++
	if r.idx >= 0 {
		e.events.fix(r, r.idx) // re-armed in place: the key changed, the record did not
	} else {
		e.events.push(r)
	}
}

// Cancel disarms a pending timer; a no-op if the timer is not pending.
func (t *Timer) Cancel() {
	if t.rec.idx >= 0 {
		t.eng.events.remove(&t.rec)
		t.rec.fn = nil
	}
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.rec.idx >= 0 }

// When returns the fire time of a pending timer (meaningless otherwise).
func (t *Timer) When() float64 { return t.rec.time }
