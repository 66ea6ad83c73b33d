package core

import "repro/internal/sim"

// Coordinator is the per-application endpoint of the coordination layer —
// the role rank 0 plays in the paper's prototype. It exposes the CALCioM
// API (Prepare/Complete/Inform/Check/Wait/Release) plus a small Session
// convenience wrapper used by the I/O drivers.
//
// CALCioM deliberately gives applications no lock and no way to force
// another application to stop: Check and Wait only observe the
// authorization state that arbitration produces, and an interrupted
// application pauses itself at its next coordination point.
//
// The Layer's Domain applies each verb, as on the daemon and in replay; the
// Coordinator adds the parked process and a panic on a protocol violation,
// which here is a bug in the experiment itself.
type Coordinator struct {
	layer *Layer
	app   AppState

	// waiting is the parked process while Wait blocks. A grant reaches it as
	// a message one latency after the decision; several can be in flight
	// (granted, revoked, granted again within one latency) and they arrive
	// in the order sent, so two counts tell them apart: grantsLive were sent
	// to the current wait, grantsStale to waits that have returned since.
	waiting                 *sim.Resumer
	grantFn                 func() // c.grantArrived, bound once
	grantsLive, grantsStale int
}

// reset clears the per-run parked-process state; the Domain resets the rest.
func (c *Coordinator) reset() {
	c.waiting = nil
	c.grantsLive, c.grantsStale = 0, 0 // the engine reset dropped the messages
}

// Name returns the application name.
func (c *Coordinator) Name() string { return c.app.name }

// Cores returns the application's core count.
func (c *Coordinator) Cores() int { return c.app.cores }

// State returns the coordinator's protocol state.
func (c *Coordinator) State() State { return c.app.state }

// IOTime returns accumulated wall time inside I/O phases (incl. waits).
func (c *Coordinator) IOTime() float64 { return c.app.led.IOTimeS }

// WaitTime returns accumulated time spent blocked in Wait.
func (c *Coordinator) WaitTime() float64 { return c.app.led.WaitS }

// Prepare stacks information about the upcoming I/O accesses, as the paper's
// Prepare(MPI_Info) does, parsed where the caller builds it (ParseInfo):
// recognized keys update the view the policies see. A driver that prepares
// the same info every phase parses it once and passes the value each time.
func (c *Coordinator) Prepare(info ParsedInfo) { c.app.Prepare(info) }

// Complete unstacks the most recent Prepare.
func (c *Coordinator) Complete() { c.apply(Effect{Violation: c.app.Complete()}) }

// Inform announces the application's intent (or continued intent) to do I/O
// to all other applications. Non-blocking: the information travels with the
// layer's message latency and triggers arbitration.
func (c *Coordinator) Inform(p *sim.Proc) { c.apply(c.layer.dom.Inform(p.Now(), &c.app, 0)) }

// Check reports whether the application is currently authorized to access
// the file system. It never blocks: an application free to reorganize its
// work can poll Check and do something else when denied.
func (c *Coordinator) Check() bool { return c.app.authorized }

// SystemBusy reports whether any *other* application is currently in an
// I/O phase (wanting, writing or paused). The paper's §III-C offers the
// coordination API to applications precisely so they "can observe the load
// of the storage stack at any point in the program and decide to schedule
// their operations differently — for instance, starting a new iteration of
// computation and coming back to the I/O phase later".
func (c *Coordinator) SystemBusy() bool {
	ar := c.layer.dom.arb
	others := len(ar.queue) - ar.head // applications in an I/O phase
	if c.app.state != Idle {
		others--
	}
	return others > 0
}

// Wait blocks until the application is authorized, then marks it Active. A
// parked Wait is served when its grant message lands, not at the decision,
// and only if no later decision revoked it meanwhile.
func (c *Coordinator) Wait(p *sim.Proc) {
	if !c.apply(c.layer.dom.Wait(p.Now(), &c.app, false)).Served {
		for !c.app.authorized {
			c.waiting = p.Suspend()
			c.waiting.Park()
			c.waiting = nil
			c.grantsStale, c.grantsLive = c.grantsStale+c.grantsLive, 0
		}
		c.layer.dom.Serve(p.Now(), &c.app)
	}
}

// grantArrived delivers one authorization message (see waiting).
func (c *Coordinator) grantArrived() {
	if c.grantsStale > 0 {
		c.grantsStale--
		return
	}
	c.grantsLive--
	c.waiting.Resume()
}

// Release ends one step of the I/O access: it reports progress, lets the
// layer re-evaluate the global strategy, and responds to pending requests
// from other applications. A new Inform is required before the next access
// step, per the paper's API contract.
func (c *Coordinator) Release(p *sim.Proc) { c.apply(c.layer.dom.Release(&c.app, 0)) }

// Progress records bytes written so far in this phase. Called by the I/O
// driver; the value rides along with the next Inform/Release message.
func (c *Coordinator) Progress(bytesDone float64) { c.app.Progress(bytesDone) }

// End terminates the I/O phase entirely: the application becomes invisible
// to arbitration until its next Inform.
func (c *Coordinator) End(p *sim.Proc) { c.apply(c.layer.dom.End(p.Now(), &c.app)) }

// apply panics on a protocol violation and sends the arbitration the verb
// asks for, which runs one message latency later.
func (c *Coordinator) apply(e Effect) Effect {
	if e.Violation.kind != 0 {
		panic(e.Violation.Err().Error())
	}
	if e.Arbitrate {
		c.layer.poke()
	}
	return e
}

// Session bundles the common call sequences a driver needs at its
// coordination points.
type Session struct {
	C *Coordinator
}

// NewSession wraps a coordinator.
func NewSession(c *Coordinator) *Session { return &Session{C: c} }

// Begin opens an I/O phase: Prepare + Inform + Wait.
func (s *Session) Begin(p *sim.Proc, info ParsedInfo) {
	s.C.Prepare(info)
	s.C.Inform(p)
	s.C.Wait(p)
}

// Yield is a coordination point between atomic accesses: Release + Inform +
// Wait. If arbitration has revoked authorization (an interruption), the call
// blocks until access is granted back; otherwise it costs only the
// coordination messages.
func (s *Session) Yield(p *sim.Proc) {
	s.C.Release(p)
	s.C.Inform(p)
	s.C.Wait(p)
}

// End closes the phase: Release + Complete + End.
func (s *Session) End(p *sim.Proc) {
	s.C.Release(p)
	s.C.Complete()
	s.C.End(p)
}
