package core

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// State is a coordinator's position in the coordination protocol.
type State int

const (
	// Idle: not in an I/O phase; invisible to arbitration.
	Idle State = iota
	// Waiting: has informed the layer and is waiting for authorization
	// (either fresh, or paused mid-phase after an interruption).
	Waiting
	// Active: authorized and inside an I/O step.
	Active
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case Waiting:
		return "waiting"
	case Active:
		return "active"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// AppView is the snapshot of one application's declared state handed to a
// Policy for arbitration. All knowledge comes from the app's Prepare info
// and its progress reports — the layer has no privileged information, which
// mirrors the paper's design: coordination works only from what applications
// share.
type AppView struct {
	Name       string
	Cores      int
	State      State
	Arrival    float64 // when this I/O phase first informed the layer
	BytesTotal float64 // declared bytes for the phase
	BytesDone  float64 // progress reported at Release points
	Files      int
	Rounds     int
	AloneBW    float64 // declared solo bandwidth; 0 = unknown
}

// Remaining returns the declared bytes still to write.
func (v *AppView) Remaining() float64 {
	r := v.BytesTotal - v.BytesDone
	if r < 0 {
		r = 0
	}
	return r
}

// Policy arbitrates file-system access among the applications currently in
// an I/O phase. Arbitrate is called whenever the set or progress of
// participating applications changes, by every Arbiter — simulator Layer,
// daemon shard and replay alike — and decides without allocating: the
// policy marks allowed[i] for each authorized apps[i]. The views arrive
// sorted by arrival time (ties by name) and allowed arrives all-false,
// len(allowed) == len(apps). apps is the Arbiter's own view array, which
// persists from one decision to the next: a policy must treat it as
// read-only (reorder indices, as DynamicPolicy does) and must not retain it
// past the call. scratch is the calling Arbiter's (never nil): whatever a
// policy needs room to estimate in goes there and not into the policy value,
// which other Arbiters may be deciding with at the same moment (see
// Scratch). The reason is a value (see Reason), so explaining a decision
// formats nothing; a positive recheck asks the Arbiter's owner to
// re-arbitrate after that many seconds even if nothing changes (used by
// delay policies).
type Policy interface {
	Name() string
	Arbitrate(now float64, apps []AppView, allowed []bool, scratch *Scratch) (reason Reason, recheck float64)
}

// DecisionRecord is one arbitration outcome, as a Layer logs it (Allowed
// aliases the Layer's storage: see Layer.Log and CloneLog) and a daemon
// shard keeps its latest.
type DecisionRecord struct {
	Time    float64
	Policy  string
	Allowed []string // sorted
	Reason  Reason
}

// Layer is the shared coordination medium: the stand-in for the common
// communicator the paper's prototype builds by launching all instances in
// one mpirun. Coordinators register here and every state change triggers an
// arbitration after the configured message latency. The coordination state
// lives in a Domain, as on the daemon and in replay; the Layer adds the
// discrete-event mechanics — latency, recheck timing, waking parked
// processes — and the decision log the simulator's results report.
type Layer struct {
	eng         *sim.Engine
	dom         *Domain
	latency     float64
	arbitrateFn func()     // l.arbitrate, bound once: a poke allocates nothing
	recheck     *sim.Timer // the pending recheck, if any

	// The decision log, unless a harness switched it off: append-only, each
	// record's Allowed cut from the names arena, and Reset keeps the
	// capacity of both. policy is the policy's Name, resolved once.
	logging bool
	log     []DecisionRecord
	names   []string
	policy  string
}

// NewLayer creates a coordination layer with the given policy and one-way
// coordination message latency in seconds (the paper implements this as MPI
// messages between rank-0 coordinators; a millisecond is typical).
func NewLayer(eng *sim.Engine, policy Policy, latency float64) *Layer {
	if latency < 0 {
		panic("core: negative latency")
	}
	l := &Layer{eng: eng, dom: NewDomain(NewArbiter(policy)), latency: latency, logging: true, policy: policy.Name()}
	l.arbitrateFn = l.arbitrate
	l.recheck = eng.NewTimer(l.arbitrateFn)
	return l
}

// Reset returns the layer to its just-constructed state on a freshly reset
// engine, keeping the registered coordinators (and hence the policy and the
// arrival tie-break order) so a reused platform re-runs a scenario without
// re-registering. The decision log restarts in place, keeping its capacity:
// what Log handed out is overwritten, so a holder that wants it past the
// Reset takes a CloneLog.
func (l *Layer) Reset() {
	l.recheck.Cancel()
	l.dom.Reset()
	l.log, l.names = l.log[:0], l.names[:0]
	for _, a := range l.dom.arb.apps {
		a.Data.(*Coordinator).reset()
	}
}

// Latency returns the one-way message latency.
func (l *Layer) Latency() float64 { return l.latency }

// Log returns the arbitration decision log, oldest first, valid until the
// next Reset.
func (l *Layer) Log() []DecisionRecord { return l.log }

// SetLogging switches the decision log on (the default) or off: a harness
// that reads no decisions (a ∆-sweep worker) logs nothing. Set it before the
// first arbitration.
func (l *Layer) SetLogging(on bool) { l.logging = on }

// LogLen returns the number of decisions logged.
func (l *Layer) LogLen() int { return len(l.log) }

// CloneLog copies a decision log deeply — records and Allowed names, which
// otherwise alias the Layer's arena — for a holder that keeps it past the
// Layer's next Reset.
func CloneLog(log []DecisionRecord) []DecisionRecord {
	out := slices.Clone(log)
	for i := range out {
		out[i].Allowed = slices.Clone(out[i].Allowed)
	}
	return out
}

// Register creates a coordinator for an application. Cores is the size of
// the job, used by machine-wide efficiency metrics.
func (l *Layer) Register(name string, cores int) *Coordinator {
	c := &Coordinator{layer: l}
	c.grantFn = c.grantArrived
	c.app.Data = c
	if err := l.dom.Join(&c.app, name, cores); err != nil {
		panic(err.Error())
	}
	return c
}

// poke schedules an arbitration after the message latency. Every protocol
// action (Inform, Release, End) calls it.
func (l *Layer) poke() {
	l.eng.After(l.latency, l.arbitrateFn)
}

func (l *Layer) arbitrate() {
	l.recheck.Cancel()
	now := l.eng.Now()
	dec := l.dom.Arbitrate(now)
	if !dec.Acted {
		return
	}
	if l.logging {
		start := len(l.names)
		l.names = l.dom.arb.AppendAllowed(l.names)
		allowed := l.names[start:len(l.names):len(l.names)] // clipped: the next record appends past it
		l.log = append(l.log, DecisionRecord{Time: now, Policy: l.policy, Allowed: allowed, Reason: dec.Reason})
		if l.eng.Tracing() { // or the arguments box for nobody
			l.eng.Tracef("calciom: policy=%s allowed=%v reason=%s", l.policy, allowed, dec.Reason)
		}
	}
	for _, a := range dec.Granted {
		if a.Parked() {
			// Authorization message travels back to the application.
			c := a.Data.(*Coordinator)
			c.grantsLive++
			l.eng.After(l.latency, c.grantFn)
		}
	}
	if dec.RecheckAfter > 0 {
		l.recheck.Schedule(dec.RecheckAfter)
	}
}
