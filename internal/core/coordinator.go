package core

import (
	"repro/internal/sim"

	"fmt"
)

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
// The protocol state itself lives in an AppState shared with the network
// daemon's sessions; the Coordinator adds only what is simulator-specific —
// the parked process resumer and the phase-time accounting.
type Coordinator struct {
	layer *Layer
	app   *AppState

	// waiting is the parked process while Wait blocks. A grant reaches it as
	// a message one latency after the decision; several can be in flight
	// (granted, revoked, granted again within one latency) and they arrive
	// in the order sent, so two counts tell them apart: grantsLive were sent
	// to the current wait, grantsStale to waits that have returned since.
	waiting                 *sim.Resumer
	grantFn                 func() // c.grantArrived, bound once
	grantsLive, grantsStale int

	// Accounting for metrics: total time spent between Begin and End of
	// phases (observed I/O time including coordination waits), and time
	// spent waiting/paused.
	phaseStart float64
	ioTime     float64
	waitTime   float64
	phases     int
}

// reset clears the simulator-specific per-run state (the parked-process
// resumer and the phase-time accounting); the shared AppState is reset by
// the owning Arbiter.
func (c *Coordinator) reset() {
	c.waiting = nil
	c.grantsLive, c.grantsStale = 0, 0 // the engine reset dropped the messages
	c.phaseStart = 0
	c.ioTime = 0
	c.waitTime = 0
	c.phases = 0
}

// Name returns the application name.
func (c *Coordinator) Name() string { return c.app.name }

// Cores returns the application's core count.
func (c *Coordinator) Cores() int { return c.app.cores }

// State returns the coordinator's protocol state.
func (c *Coordinator) State() State { return c.app.state }

// IOTime returns accumulated wall time inside I/O phases (incl. waits).
func (c *Coordinator) IOTime() float64 { return c.ioTime }

// WaitTime returns accumulated time spent blocked in Wait.
func (c *Coordinator) WaitTime() float64 { return c.waitTime }

// Prepare stacks information about the upcoming I/O accesses, as the paper's
// Prepare(MPI_Info) does. Recognized keys update the view the policies see.
func (c *Coordinator) Prepare(info Info) { c.app.Prepare(info) }

// Complete unstacks the most recent Prepare.
func (c *Coordinator) Complete() {
	if err := c.app.Complete(); err != nil {
		panic(err.Error())
	}
}

// Inform announces the application's intent (or continued intent) to do I/O
// to all other applications. Non-blocking: the information travels with the
// layer's message latency and triggers arbitration.
func (c *Coordinator) Inform(p *sim.Proc) {
	if c.app.Inform(p.Now()) {
		c.phaseStart = p.Now()
		c.phases++
	}
	c.layer.poke()
}

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
	others := len(c.layer.arb.queue) - c.layer.arb.head // applications in an I/O phase
	if c.app.state != Idle {
		others--
	}
	return others > 0
}

// Wait blocks until the application is authorized, then marks it Active.
func (c *Coordinator) Wait(p *sim.Proc) {
	if c.app.state == Idle {
		panic(fmt.Sprintf("core: %s: Wait before Inform", c.app.name))
	}
	start := p.Now()
	for !c.app.authorized {
		c.app.setState(Waiting)
		c.waiting = p.Suspend()
		c.waiting.Park()
		c.waiting = nil
		c.grantsStale, c.grantsLive = c.grantsStale+c.grantsLive, 0
	}
	if err := c.app.Activate(); err != nil {
		panic(err.Error())
	}
	c.waitTime += p.Now() - start
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
func (c *Coordinator) Release(p *sim.Proc) {
	if err := c.app.Release(); err != nil {
		panic(err.Error())
	}
	c.layer.poke()
}

// Progress records bytes written so far in this phase. Called by the I/O
// driver; the value rides along with the next Inform/Release message.
func (c *Coordinator) Progress(bytesDone float64) { c.app.Progress(bytesDone) }

// End terminates the I/O phase entirely: the application becomes invisible
// to arbitration until its next Inform.
func (c *Coordinator) End(p *sim.Proc) {
	c.app.End()
	c.ioTime += p.Now() - c.phaseStart
	c.layer.poke()
}

// Session bundles the common call sequences a driver needs at its
// coordination points.
type Session struct {
	C *Coordinator
}

// NewSession wraps a coordinator.
func NewSession(c *Coordinator) *Session { return &Session{C: c} }

// Begin opens an I/O phase: Prepare + Inform + Wait.
func (s *Session) Begin(p *sim.Proc, info Info) {
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
