package core

import (
	"errors"
	"math"
)

// Domain is one storage target's coordination state — its Arbiter, each
// session's AppState with its Ledger, the pending recheck deadline — and
// the one place the meaning of each coordination verb is written (Prepare,
// Complete and Progress, which touch only the application's view, are
// AppState's). Its hosts
// add only what is theirs: the daemon's shard its lock, replies, trace
// records, metrics and timers; replay's machine its virtual clock and
// accrual; the simulator's Layer message latency and process parking.
//
// A verb is one call that does no I/O, reads no clock and allocates
// nothing. Its Effect says whether the protocol refused it and whether it
// changed what the policy sees, in which case the host calls Arbitrate, at
// once or one message latency later. A Wait not yet authorized parks until
// an Arbitrate grants it and the host Serves it. Like its Arbiter, a Domain
// is not goroutine-safe.
type Domain struct {
	arb          *Arbiter
	recheckAt    float64
	arbitrations uint64
}

// Ledger is one application's coordination bookkeeping on one target: the
// phases it opened, the grants its Waits were served, the time those Waits
// took and why, and the time its phases stayed open, kept by its Domain.
//
// A Wait is immediate when the application is already authorized, and is
// otherwise parked until a later arbitration serves it. A parked Wait is a
// convoy wait when another application held authorization at the moment it
// parked (it queued behind a holder), and a protocol wait when nobody did
// (it was deferred by the policy itself, a delay recheck for instance).
// Every served Wait is one grant, so WaitsImmediate + WaitsDeferred ==
// Grants, and WaitS is the sum of ConvoyWaitS and ProtocolWaitS up to the
// order of the additions.
type Ledger struct {
	Phases         int
	Grants         uint64
	WaitsImmediate uint64
	WaitsDeferred  uint64
	WaitS          float64 // deferred-wait time, censored waits included
	ConvoyWaitS    float64
	ProtocolWaitS  float64
	IOTimeS        float64 // time phases were open, closed phases only
}

// Add folds o's counters into l, for totals over several applications.
func (l *Ledger) Add(o Ledger) {
	l.Phases += o.Phases
	l.Grants += o.Grants
	l.WaitsImmediate += o.WaitsImmediate
	l.WaitsDeferred += o.WaitsDeferred
	l.WaitS += o.WaitS
	l.ConvoyWaitS += o.ConvoyWaitS
	l.ProtocolWaitS += o.ProtocolWaitS
	l.IOTimeS += o.IOTimeS
}

// Ledger returns the application's bookkeeping.
func (a *AppState) Ledger() Ledger { return a.led }

// Parked reports whether the application has a Wait parked.
func (a *AppState) Parked() bool { return a.parked }

// Joined reports whether the application is registered.
func (a *AppState) Joined() bool { return a.ar != nil }

// IOTimeAt returns the ledger's IOTimeS as it would read if the open phase,
// if any, closed at now: the I/O time of a live snapshot.
func (a *AppState) IOTimeAt(now float64) float64 {
	if a.state != Idle {
		return a.led.IOTimeS + (now - a.phaseStart)
	}
	return a.led.IOTimeS
}

// Censor charges a Wait still parked when the record ends at now, without
// counting it as served, and reports its duration; ok is false when no
// Wait was parked.
func (a *AppState) Censor(now float64) (waited float64, ok bool) {
	if !a.parked {
		return 0, false
	}
	return a.charge(now), true
}

// charge books the parked Wait's time up to now and unparks it.
func (a *AppState) charge(now float64) float64 {
	d := now - a.waitFrom
	a.led.WaitS += d
	if a.convoy {
		a.led.ConvoyWaitS += d
	} else {
		a.led.ProtocolWaitS += d
	}
	a.parked = false
	return d
}

// close ends the application's part in its phase at now: an open phase's
// time is charged and a parked Wait is cancelled, which close reports.
func (a *AppState) close(now float64) (cancelled bool) {
	if a.state != Idle {
		a.led.IOTimeS += now - a.phaseStart
	}
	cancelled, a.parked = a.parked, false
	return cancelled
}

// Effect is what one verb did. A Violation refused it: nothing changed,
// except that a Release still applied its progress report. Arbitrate asks
// the host for an arbitration. Served is a Wait answered at once, the
// application being authorized and now Active; Refused one the host had
// refused; any other Wait parked. Cancelled is the Wait parked under a
// phase that End or Leave tore down, which the host fails.
type Effect struct {
	Violation                             Violation
	Arbitrate, Served, Refused, Cancelled bool
}

// Decision is what one Arbitrate did; Acted is false when no application
// was in an I/O phase. Reason is the policy's. Granted and Revoked, the
// Arbiter's until its next decision, list the flips in registration order:
// a granted application that is Parked has a Wait the host answers with
// Serve, and the others the host may notify; Arbiter.AppendAllowed lists
// every application the decision allowed. RecheckAt, when finite, is when
// the policy asked to be re-arbitrated even if nothing changes,
// RecheckAfter after the decision.
type Decision struct {
	Acted                   bool
	Reason                  Reason
	Granted, Revoked        []*AppState
	RecheckAt, RecheckAfter float64
}

// NewDomain wraps an arbiter on which nothing is registered yet.
func NewDomain(arb *Arbiter) *Domain { return &Domain{arb: arb, recheckAt: math.Inf(1)} }

// Arbiter returns the domain's arbiter, for its applications.
func (d *Domain) Arbiter() *Arbiter { return d.arb }

// Arbitrations counts the Arbitrate calls since the domain was made or Reset.
func (d *Domain) Arbitrations() uint64 { return d.arbitrations }

// RecheckAt returns the pending recheck deadline, +Inf when none.
func (d *Domain) RecheckAt() float64 { return d.recheckAt }

// Reset returns the domain to its just-made state, keeping the applications
// in their registration order with empty ledgers (see Arbiter.Reset).
func (d *Domain) Reset() {
	d.arb.Reset()
	d.recheckAt, d.arbitrations = math.Inf(1), 0
}

// Join registers a — fresh, or resuming after a Leave — under a unique
// name, its protocol state afresh and its ledger kept.
func (d *Domain) Join(a *AppState, name string, cores int) error {
	return d.arb.register(a, name, cores)
}

// Leave unregisters a at now, closing its phase; leaving mid-phase asks for
// an arbitration, or a vanished holder would wedge the queue.
func (d *Domain) Leave(now float64, a *AppState) Effect {
	e := Effect{Arbitrate: a.state != Idle, Cancelled: a.close(now)}
	a.End()
	d.arb.Unregister(a)
	return e
}

// Inform applies the progress report and announces the intent to do I/O;
// the first Inform of a phase opens it.
func (d *Domain) Inform(now float64, a *AppState, bytesDone float64) Effect {
	a.Progress(bytesDone)
	if a.Inform(now) {
		a.phaseStart = now
		a.led.Phases++
	}
	return Effect{Arbitrate: true}
}

// Wait asks for access at now: an authorized application is served at
// once, any other parks. refuse has a Wait that is no violation refused —
// the daemon drains.
func (d *Domain) Wait(now float64, a *AppState, refuse bool) Effect {
	switch {
	case a.state == Idle:
		return Effect{Violation: Violation{a, waitBeforeInform}}
	case a.parked:
		return Effect{Violation: Violation{kind: waitPending}}
	case refuse:
		return Effect{Refused: true}
	case !a.authorized:
		a.parked, a.waitFrom, a.convoy = true, now, d.arb.otherAuthorized(a)
		return Effect{}
	}
	a.led.WaitsImmediate++
	a.led.Grants++
	a.Activate()
	return Effect{Served: true}
}

// Serve answers a's parked Wait at now, once the grant reached it: the
// application enters its access step. It reports how long the Wait took
// and whether it queued behind a holder.
func (d *Domain) Serve(now float64, a *AppState) (waited float64, convoy bool) {
	convoy = a.convoy
	waited = a.charge(now)
	a.led.WaitsDeferred++
	a.led.Grants++
	a.Activate()
	return waited, convoy
}

// Cancel drops a's parked Wait uncharged, reporting whether one was parked.
func (d *Domain) Cancel(a *AppState) (was bool) {
	was, a.parked = a.parked, false
	return was
}

// Release applies the progress report, then ends the access step; an
// application not Active has nothing to release.
func (d *Domain) Release(a *AppState, bytesDone float64) Effect {
	a.Progress(bytesDone)
	v := a.Release()
	return Effect{Violation: v, Arbitrate: v.kind == 0}
}

// End closes the phase at now: the application becomes invisible to
// arbitration.
func (d *Domain) End(now float64, a *AppState) Effect {
	e := Effect{Arbitrate: true, Cancelled: a.close(now)}
	a.End()
	return e
}

// Arbitrate runs one decision at now (see Arbiter.Arbitrate).
func (d *Domain) Arbitrate(now float64) Decision {
	reason, recheck, acted := d.arb.Arbitrate(now)
	d.arbitrations++
	d.recheckAt = math.Inf(1)
	if recheck > 0 {
		d.recheckAt = now + recheck
	}
	return Decision{Acted: acted, Reason: reason, Granted: d.arb.granted, Revoked: d.arb.revoked,
		RecheckAt: d.recheckAt, RecheckAfter: recheck}
}

// Violation is a verb its application's protocol state does not allow: a
// client bug the daemon answers with an error, skew replay ignores, a bug in
// the experiment the simulator panics on. The zero Violation is none, and
// only Err formats one.
type Violation struct {
	app  *AppState // nil for a violation of the session, not of the application
	kind violation
}

// violation is what a verb found wrong, by kind; 0 is nothing.
type violation uint8

const (
	completeWithoutPrepare violation = iota + 1
	waitBeforeInform
	releaseWhileIdle
	releaseWhileWaiting
	waitPending // the session's: its text names no application
	nViolations
)

// violationText is each kind's wording.
var violationText = [nViolations]string{
	completeWithoutPrepare: "Complete without Prepare",
	waitBeforeInform:       "Wait before Inform",
	releaseWhileIdle:       "Release while idle",
	releaseWhileWaiting:    "Release while waiting",
	waitPending:            "wait already pending",
}

// releaseWhile is what a Release finds wrong, by the state it finds.
var releaseWhile = [...]violation{Idle: releaseWhileIdle, Waiting: releaseWhileWaiting}

// errWaitPending is the session's one violation, the same for every session.
var errWaitPending = errors.New(violationText[waitPending])

// Err returns v as an error, nil when there is none. An application keeps
// the error of each kind it has violated, built the first time, so a client
// that repeats a refused verb costs the daemon no allocation.
func (v Violation) Err() error {
	switch {
	case v.kind == 0:
		return nil
	case v.app == nil:
		return errWaitPending
	}
	a := v.app
	if a.errs == nil {
		a.errs = new([nViolations]error)
	}
	if a.errs[v.kind] == nil {
		a.errs[v.kind] = errors.New("core: " + a.name + ": " + violationText[v.kind])
	}
	return a.errs[v.kind]
}
