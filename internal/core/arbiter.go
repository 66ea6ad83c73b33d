package core

import (
	"fmt"
	"slices"
)

// AppState is one application's protocol state as the arbitration core sees
// it — registration identity, the folded Prepare info, phase state and the
// current authorization — with its Ledger and its host's cookie: a session's
// place in a Domain, through which every host drives it. Its methods never
// panic: a protocol violation is returned as a Violation.
type AppState struct {
	// Data is the host's cookie: the simulator stores the *Coordinator, the
	// daemon its binding, replay its session. The core never touches it.
	Data any

	name     string
	cores    int
	regCores int      // cores at registration; Prepare may override cores, Reset restores this
	idx      int      // position in Arbiter.apps; -1 once unregistered
	ar       *Arbiter // owning arbiter; nil once unregistered
	qpos     int      // position in ar.queue, meaningful while state != Idle

	state      State
	arrival    float64
	authorized bool

	bytesTotal float64
	bytesDone  float64
	files      int
	rounds     int
	aloneBW    float64

	infoStack []ParsedInfo
	errs      *[nViolations]error // Violation.Err's, by kind, once built

	// The Domain's bookkeeping: the ledger, and the open phase and parked
	// Wait it is charging.
	led        Ledger
	phaseStart float64
	waitFrom   float64
	parked     bool
	convoy     bool // the parked Wait found another application authorized
}

// Name returns the application name.
func (a *AppState) Name() string { return a.name }

// Cores returns the application's core count (possibly updated by Prepare).
func (a *AppState) Cores() int { return a.cores }

// State returns the protocol state.
func (a *AppState) State() State { return a.state }

// Authorized reports the current arbitration outcome for this application.
func (a *AppState) Authorized() bool { return a.authorized }

// View snapshots the application as a policy sees it.
func (a *AppState) View() AppView {
	return AppView{
		Name:       a.name,
		Cores:      a.cores,
		State:      a.state,
		Arrival:    a.arrival,
		BytesTotal: a.bytesTotal,
		BytesDone:  a.bytesDone,
		Files:      a.files,
		Rounds:     a.rounds,
		AloneBW:    a.aloneBW,
	}
}

// refresh rewrites the application's slot in the owning Arbiter's view
// array. Every mutator that changes something a policy can see while the
// application is queued ends with it, so the views handed to the policy are
// current without Arbitrate visiting any application that did not change.
func (a *AppState) refresh() {
	if a.ar != nil && a.state != Idle {
		a.ar.views[a.qpos] = a.View()
	}
}

// setState moves a queued application between Waiting and Active.
func (a *AppState) setState(s State) {
	a.state = s
	if a.ar != nil {
		a.ar.views[a.qpos].State = s
	}
}

// Prepare stacks information about the upcoming I/O accesses, as the paper's
// Prepare(MPI_Info) does, parsed by ParseInfo: the recognized keys update
// the view policies see.
func (a *AppState) Prepare(info ParsedInfo) {
	a.infoStack = append(a.infoStack, info)
	a.applyInfo()
	a.refresh()
}

// Complete unstacks the most recent Prepare.
func (a *AppState) Complete() Violation {
	if len(a.infoStack) == 0 {
		return Violation{a, completeWithoutPrepare}
	}
	a.infoStack = a.infoStack[:len(a.infoStack)-1]
	a.applyInfo()
	a.refresh()
	return Violation{}
}

// applyInfo folds the info stack (later entries win) into the typed view.
func (a *AppState) applyInfo() {
	a.bytesTotal, a.files, a.rounds, a.aloneBW = 0, 0, 0, 0
	for _, in := range a.infoStack {
		if in.bytesTotal >= 0 {
			a.bytesTotal = in.bytesTotal
		}
		if in.files >= 0 {
			a.files = int(in.files)
		}
		if in.rounds >= 0 {
			a.rounds = int(in.rounds)
		}
		if in.aloneBW >= 0 {
			a.aloneBW = in.aloneBW
		}
		if in.cores > 0 {
			a.cores = int(in.cores)
		}
	}
}

// Inform announces the intent to do I/O. The first Inform of a phase records
// the arrival, resets the progress counter, joins the arbitration queue and
// reports true.
func (a *AppState) Inform(now float64) (fresh bool) {
	if a.state != Idle {
		return false
	}
	a.state = Waiting
	a.arrival = now
	a.bytesDone = 0
	if a.ar != nil {
		a.ar.enqueue(a)
	}
	return true
}

// Activate marks the application inside an I/O step, as a served Wait does.
func (a *AppState) Activate() Violation {
	if a.state == Idle {
		return Violation{a, waitBeforeInform}
	}
	a.setState(Active)
	return Violation{}
}

// Release ends one step of the I/O access.
func (a *AppState) Release() Violation {
	if a.state != Active {
		return Violation{a, releaseWhile[a.state]}
	}
	a.setState(Waiting)
	return Violation{}
}

// End terminates the I/O phase entirely: the application becomes invisible
// to arbitration until its next Inform. Its authorization lapses silently —
// the next Arbitrate reports no revoke for it.
func (a *AppState) End() {
	if a.ar != nil && a.state != Idle {
		a.ar.dequeue(a)
	}
	a.state = Idle
	a.authorized = false
}

// Progress records bytes written so far in this phase.
func (a *AppState) Progress(bytesDone float64) {
	if bytesDone > a.bytesDone {
		a.bytesDone = bytesDone
		if a.ar != nil && a.state != Idle {
			a.ar.views[a.qpos].BytesDone = bytesDone
		}
	}
}

// Arbiter is the arbitration half of a Domain: the registered
// applications, the arrival-ordered queue of those in an I/O phase with the
// AppViews handed to the policy, and the application of the policy's
// decision back onto per-app authorization bits. It keeps no record of its
// decisions: a host that wants one (the simulator's Layer its log, a daemon
// shard its last decision) takes it from the Decision and AppendAllowed.
//
// The queue is persistent and maintained incrementally, so a decision costs
// what changed since the last one rather than a rebuild: Inform inserts the
// application from the tail, End and Unregister remove it, every other
// AppState mutator rewrites its own view slot, and decision application
// visits only the applications whose authorization flipped. Steady-state
// arbitration reuses all scratch, and the hot path performs no per-request
// allocation.
//
// The Arbiter is not goroutine-safe: the sim engine is single-threaded, and
// the daemon runs every request for a target under that target's shard lock
// (which is also what makes daemon decisions deterministic given a
// serialized request order).
type Arbiter struct {
	policy Policy

	apps []*AppState // registration order

	// The arbitration queue: three parallel slices whose live window
	// [head:] holds exactly the non-idle applications in strictly
	// increasing (arrival, name) order — names are unique and an arrival is
	// fixed for as long as its application stays queued, so the order is
	// total and an entry never has to move. queue[i].qpos == i, views[i] ==
	// queue[i].View(), auth[i] == queue[i].authorized. Removing the head
	// (the FCFS holder ending its phase) only advances head; enqueue
	// reclaims the dead prefix once it is as long as the window.
	queue []*AppState
	views []AppView
	auth  []bool
	head  int
	nAuth int // authorized applications, all of them queued

	// Per-decision scratch, reused across calls; model is the policy's.
	allowed []bool
	granted []*AppState
	revoked []*AppState
	model   Scratch
}

// NewArbiter creates an arbiter running the given policy.
func NewArbiter(policy Policy) *Arbiter {
	if policy == nil {
		panic("core: nil policy")
	}
	return &Arbiter{policy: policy}
}

// SetIndexed does nothing: a policy has one way to decide. It stays only
// while benchmark/micro.go, frozen during the change that made it so, still
// calls it; both go with the next benchmark PR.
func (ar *Arbiter) SetIndexed(bool) {}

// SetLogBound does nothing: an Arbiter keeps no decision log (the Layer
// keeps the simulator's). It stays, like SetIndexed, only while
// benchmark/micro.go still calls it.
func (ar *Arbiter) SetLogBound(int) {}

// Reserve sizes the arbiter for n registered applications — the
// registration list, the queue, the decision scratch and the policy's
// estimation scratch — so that an owner that knows its population up front
// (a replay stream) allocates each once instead of growing it. Call it before
// the first Register.
func (ar *Arbiter) Reserve(n int) {
	ar.apps = slices.Grow(ar.apps, n)
	ar.queue, ar.views, ar.auth = slices.Grow(ar.queue, n), slices.Grow(ar.views, n), slices.Grow(ar.auth, n)
	ar.allowed = slices.Grow(ar.allowed, n)
	ar.granted, ar.revoked = slices.Grow(ar.granted, n), slices.Grow(ar.revoked, n)
	ar.model.reserve(n)
}

// Reset returns the arbiter to its just-constructed state while keeping the
// registered applications (in registration order) and the capacity of the
// queue and the decision scratch: every AppState goes back to
// Idle/unauthorized with an empty info stack and ledger, and the queue
// empties.
func (ar *Arbiter) Reset() {
	for _, a := range ar.apps {
		a.reset()
	}
	clear(ar.queue)
	ar.queue, ar.views, ar.auth = ar.queue[:0], ar.views[:0], ar.auth[:0]
	ar.head, ar.nAuth = 0, 0
}

// reset returns the application to its just-registered state, ledger
// included, undoing any Prepare(KeyCores) override.
func (a *AppState) reset() {
	*a = AppState{Data: a.Data, name: a.name, cores: a.regCores, regCores: a.regCores, idx: a.idx, ar: a.ar,
		infoStack: a.infoStack[:0]}
}

// otherAuthorized reports whether any registered application other than
// app currently holds authorization: what Domain.Wait classifies a parked
// Wait by.
func (ar *Arbiter) otherAuthorized(app *AppState) bool {
	n := ar.nAuth
	if app != nil && app.ar == ar && app.authorized {
		n--
	}
	return n > 0
}

// Apps returns the registered applications in registration order. The slice
// is owned by the Arbiter.
func (ar *Arbiter) Apps() []*AppState { return ar.apps }

// Register adds an application. Names must be unique among currently
// registered applications.
func (ar *Arbiter) Register(name string, cores int) (*AppState, error) {
	a := new(AppState)
	if err := ar.register(a, name, cores); err != nil {
		return nil, err
	}
	return a, nil
}

// register (re)initializes a — fresh, or unregistered and joining a Domain
// again — as a newly registered application that keeps its cookie and its
// ledger.
func (ar *Arbiter) register(a *AppState, name string, cores int) error {
	if name == "" {
		return fmt.Errorf("core: empty application name")
	}
	for _, o := range ar.apps {
		if o.name == name {
			return fmt.Errorf("core: duplicate coordinator %q", name)
		}
	}
	*a = AppState{Data: a.Data, name: name, cores: cores, regCores: cores, idx: len(ar.apps), ar: ar,
		infoStack: a.infoStack[:0], led: a.led}
	ar.apps = append(ar.apps, a)
	return nil
}

// Unregister removes an application (a daemon session disconnecting), from
// the queue too if it leaves mid-phase. The registration order of the
// remaining applications is preserved, so decision application — and
// therefore grant delivery order — stays deterministic. Unregistering twice
// is a no-op.
func (ar *Arbiter) Unregister(a *AppState) {
	if a == nil || a.ar != ar {
		return
	}
	if a.state != Idle {
		ar.dequeue(a)
	}
	copy(ar.apps[a.idx:], ar.apps[a.idx+1:])
	ar.apps[len(ar.apps)-1] = nil
	ar.apps = ar.apps[:len(ar.apps)-1]
	for i := a.idx; i < len(ar.apps); i++ {
		ar.apps[i].idx = i
	}
	a.idx, a.ar = -1, nil
}

// viewLess orders views by (arrival, name), the order policies are
// guaranteed to see.
func viewLess(a, b *AppView) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.Name < b.Name
}

// enqueue inserts a freshly informed application at its (arrival, name)
// position, walking back from the tail: arrivals come from one clock, so the
// walk passes only entries that share the new arrival time and sort after
// the new name — except for callers that hand Inform out-of-order times,
// which cost the distance they are out of order by.
func (ar *Arbiter) enqueue(a *AppState) {
	if ar.head > 0 && ar.head >= len(ar.queue)-ar.head {
		// The dead prefix is at least as long as the live window: slide the
		// window down. Each head removal pays for at most one moved entry.
		ar.queue = slices.Delete(ar.queue, 0, ar.head)
		ar.views = slices.Delete(ar.views, 0, ar.head)
		ar.auth = slices.Delete(ar.auth, 0, ar.head)
		ar.head = 0
		for i, q := range ar.queue {
			q.qpos = i
		}
	}
	v := a.View()
	ar.queue = append(ar.queue, nil)
	ar.views = append(ar.views, AppView{})
	ar.auth = append(ar.auth, false)
	i := len(ar.queue) - 1
	for ; i > ar.head && viewLess(&v, &ar.views[i-1]); i-- {
		ar.queue[i], ar.views[i], ar.auth[i] = ar.queue[i-1], ar.views[i-1], ar.auth[i-1]
		ar.queue[i].qpos = i
	}
	ar.queue[i], ar.views[i], ar.auth[i] = a, v, false
	a.qpos = i
}

// dequeue removes a queued application (its phase ended, or it unregistered
// mid-phase) and with it any authorization it held.
func (ar *Arbiter) dequeue(a *AppState) {
	i := a.qpos
	if ar.auth[i] {
		ar.nAuth--
	}
	if i == ar.head {
		ar.queue[i] = nil
		ar.head++
	} else {
		ar.queue = slices.Delete(ar.queue, i, i+1)
		ar.views = slices.Delete(ar.views, i, i+1)
		ar.auth = slices.Delete(ar.auth, i, i+1)
		for j := i; j < len(ar.queue); j++ {
			ar.queue[j].qpos = j
		}
	}
	if ar.head == len(ar.queue) {
		ar.queue, ar.views, ar.auth = ar.queue[:0], ar.views[:0], ar.auth[:0]
		ar.head = 0
	}
}

// Arbitrate runs one arbitration round at the given time: it hands the
// policy the queued applications' views — kept sorted by (arrival, name) and
// current by the AppState mutators — and applies the decision to the
// authorization bits that differ from it. It returns the policy's reason
// and recheck request, and acted false when no application was in an I/O
// phase; the flips, in registration order, are left in granted and revoked
// for Domain.Arbitrate to hand on.
func (ar *Arbiter) Arbitrate(now float64) (reason Reason, recheck float64, acted bool) {
	ar.granted, ar.revoked = ar.granted[:0], ar.revoked[:0]
	views := ar.views[ar.head:len(ar.views):len(ar.views)] // clipped: a policy's append must not reach the backing
	n := len(views)
	if n == 0 {
		return Reason{}, 0, false
	}
	if cap(ar.allowed) < n {
		ar.allowed = make([]bool, cap(ar.views))
	}
	allowed := ar.allowed[:n]
	clear(allowed)

	reason, recheck = ar.policy.Arbitrate(now, views, allowed, &ar.model)

	queue, auth := ar.queue[ar.head:], ar.auth[ar.head:]
	for i, ok := range allowed {
		if ok == auth[i] {
			continue
		}
		a := queue[i]
		auth[i], a.authorized = ok, ok
		if ok {
			ar.nAuth++
			ar.granted = append(ar.granted, a)
		} else {
			ar.nAuth--
			ar.revoked = append(ar.revoked, a)
		}
	}
	sortByRegistration(ar.granted)
	sortByRegistration(ar.revoked)

	return reason, recheck, true
}

// AppendAllowed appends the names of the applications the last decision
// allowed to dst, sorted, and returns the extended slice. It reads the
// authorization bits, so it is exact until a phase ends or an application
// leaves; once dst has room it allocates nothing.
func (ar *Arbiter) AppendAllowed(dst []string) []string {
	start := len(dst)
	if ar.nAuth > 0 {
		for i, ok := range ar.auth[ar.head:] {
			if ok {
				dst = append(dst, ar.queue[ar.head+i].name)
			}
		}
	}
	slices.Sort(dst[start:])
	return dst
}

// sortByRegistration orders a decision's flips — found in queue order — by
// registration index, with an insertion loop up to sortCutoff flips. Almost
// every decision flips at most one application each way; a delay decision
// can flip a whole queue.
func sortByRegistration(apps []*AppState) {
	if len(apps) > sortCutoff {
		slices.SortFunc(apps, func(a, b *AppState) int { return a.idx - b.idx })
		return
	}
	for i := 1; i < len(apps); i++ {
		a, j := apps[i], i
		for ; j > 0 && a.idx < apps[j-1].idx; j-- {
			apps[j] = apps[j-1]
		}
		apps[j] = a
	}
}
