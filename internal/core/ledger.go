package core

// Ledger is one application's coordination bookkeeping on one arbiter: the
// phases it opened, the grants its Waits were served, the time those Waits
// took and why, and the time its phases stayed open. The simulator's
// Coordinator, the daemon's per-target binding and offline replay's session
// each keep one and apply every event through it, so a figure the live
// stats report and the one a replay of the same trace derives have one
// definition.
//
// A Wait is immediate when the application is already authorized, and is
// otherwise parked until a later arbitration serves it. A parked Wait is a
// convoy wait when another application held authorization at the moment it
// parked (it queued behind a holder), and a protocol wait when nobody did
// (it was deferred by the policy itself, a delay recheck for instance).
// Every served Wait is one grant, so WaitsImmediate + WaitsDeferred ==
// Grants, and WaitS is the sum of ConvoyWaitS and ProtocolWaitS up to the
// order of the additions.
//
// The zero Ledger is empty and ready to use.
type Ledger struct {
	Phases         int
	Grants         uint64
	WaitsImmediate uint64
	WaitsDeferred  uint64
	WaitS          float64 // deferred-wait time, censored waits included
	ConvoyWaitS    float64
	ProtocolWaitS  float64
	IOTimeS        float64 // time phases were open, closed phases only

	phaseStart float64
	waitFrom   float64
	parked     bool
	convoy     bool
}

// Inform applies an Inform to app at now; when it opens a fresh phase, the
// phase is counted and its clock starts. It reports what AppState.Inform
// does.
func (l *Ledger) Inform(app *AppState, now float64) (fresh bool) {
	if !app.Inform(now) {
		return false
	}
	l.phaseStart = now
	l.Phases++
	return true
}

// Wait accounts for a Wait app issues at now. An authorized app is served at
// once — an immediate wait and a grant — and Wait reports true; otherwise
// the Wait parks until Serve, Cancel, Close or Censor, classified by
// whether another application on app's arbiter holds authorization now.
// The caller checks Parked first: one Wait parks at a time.
func (l *Ledger) Wait(app *AppState, now float64) (served bool) {
	if app.authorized {
		l.WaitsImmediate++
		l.Grants++
		return true
	}
	l.parked = true
	l.waitFrom = now
	l.convoy = app.ar.otherAuthorized(app)
	return false
}

// Parked reports whether a Wait is parked.
func (l *Ledger) Parked() bool { return l.parked }

// Serve answers the parked Wait at now — a deferred wait and a grant — and
// returns how long it waited and whether that was a convoy wait.
func (l *Ledger) Serve(now float64) (waited float64, convoy bool) {
	waited, convoy = l.charge(now), l.convoy
	l.WaitsDeferred++
	l.Grants++
	return waited, convoy
}

// Censor charges a Wait still parked when the record ends at now, without
// counting it as served, and reports its duration; ok is false when no Wait
// was parked.
func (l *Ledger) Censor(now float64) (waited float64, ok bool) {
	if !l.parked {
		return 0, false
	}
	return l.charge(now), true
}

// charge books the parked Wait's time up to now into its bucket and
// unparks it.
func (l *Ledger) charge(now float64) float64 {
	d := now - l.waitFrom
	l.WaitS += d
	if l.convoy {
		l.ConvoyWaitS += d
	} else {
		l.ProtocolWaitS += d
	}
	l.parked = false
	return d
}

// Cancel drops a parked Wait without charging it (its phase ended or its
// session went away) and reports whether one was parked.
func (l *Ledger) Cancel() bool {
	was := l.parked
	l.parked = false
	return was
}

// Close ends app's part in its phase at now — an End, or the application
// leaving its arbiter — before app goes idle or unregisters: an open phase's
// time is charged to IOTimeS and a parked Wait is cancelled, which Close
// reports.
func (l *Ledger) Close(app *AppState, now float64) (cancelled bool) {
	if app.state != Idle {
		l.IOTimeS += now - l.phaseStart
	}
	return l.Cancel()
}

// IOTimeAt returns IOTimeS as it would read if app's open phase, if any,
// closed at now: the I/O time of a live snapshot.
func (l *Ledger) IOTimeAt(app *AppState, now float64) float64 {
	if app.state != Idle {
		return l.IOTimeS + (now - l.phaseStart)
	}
	return l.IOTimeS
}

// Add folds o's counters into l, for totals over several applications.
// What o has open or parked stays with o.
func (l *Ledger) Add(o *Ledger) {
	l.Phases += o.Phases
	l.Grants += o.Grants
	l.WaitsImmediate += o.WaitsImmediate
	l.WaitsDeferred += o.WaitsDeferred
	l.WaitS += o.WaitS
	l.ConvoyWaitS += o.ConvoyWaitS
	l.ProtocolWaitS += o.ProtocolWaitS
	l.IOTimeS += o.IOTimeS
}
