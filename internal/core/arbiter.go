package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// AppState is one application's protocol state as the arbitration core sees
// it: registration identity, the folded Prepare info, phase state and the
// current authorization. It is the piece of the coordination layer shared
// between the two deployment modes — the discrete-event simulator wraps one
// per Coordinator, and the network daemon wraps one per client session — so
// view construction and decision application cannot drift between them.
//
// AppState methods never panic: protocol violations (Complete without
// Prepare, Release while not active) are returned as errors, because on the
// daemon path they are client bugs the server must survive. The simulator's
// Coordinator converts them back to panics, as a protocol violation there is
// a bug in the experiment itself.
type AppState struct {
	// Data is an owner-managed cookie: the sim layer stores the
	// *Coordinator, the daemon stores its session. The arbitration core
	// never touches it.
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

	infoStack []infoFields
}

// infoFields is one stacked Prepare, parsed once, reduced to the keys a
// policy can see; a negative field was absent or malformed.
type infoFields struct {
	bytesTotal, aloneBW  float64
	files, rounds, cores int64
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
// Prepare(MPI_Info) does. Recognized keys update the view policies see; a
// value that does not parse, or parses to NaN or an infinity (the info is
// whatever a client sent), is ignored like a key that is not there.
func (a *AppState) Prepare(info Info) {
	finite := func(v float64) float64 {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			return -1
		}
		return v
	}
	a.infoStack = append(a.infoStack, infoFields{
		bytesTotal: finite(info.Float(KeyBytesTotal, -1)),
		aloneBW:    finite(info.Float(KeyAloneBW, -1)),
		files:      info.Int(KeyFiles, -1),
		rounds:     info.Int(KeyRounds, -1),
		cores:      info.Int(KeyCores, -1),
	})
	a.applyInfo()
	a.refresh()
}

// Complete unstacks the most recent Prepare.
func (a *AppState) Complete() error {
	if len(a.infoStack) == 0 {
		return fmt.Errorf("core: %s: Complete without Prepare", a.name)
	}
	a.infoStack = a.infoStack[:len(a.infoStack)-1]
	a.applyInfo()
	a.refresh()
	return nil
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

// Inform announces the application's intent (or continued intent) to do I/O.
// On the first Inform of a phase it records the arrival time, resets the
// progress counter and joins the arbitration queue; it reports whether this
// opened a fresh phase.
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

// Activate marks the application inside an I/O step, the transition a
// successful Wait makes.
func (a *AppState) Activate() error {
	if a.state == Idle {
		return fmt.Errorf("core: %s: Wait before Inform", a.name)
	}
	a.setState(Active)
	return nil
}

// Release ends one step of the I/O access; a new Inform is required before
// the next access step, per the paper's API contract.
func (a *AppState) Release() error {
	if a.state != Active {
		return fmt.Errorf("core: %s: Release while %v", a.name, a.state)
	}
	a.setState(Waiting)
	return nil
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

// IndexedArbitrator is the allocation-free form of a decision, and the path
// every Arbiter takes — simulator Layer, daemon shard and replay alike —
// whenever the policy offers it, as every policy of this package does:
// instead of returning a Decision with a freshly allocated Allowed map, the
// policy marks allowed[i] for each authorized apps[i]. The views arrive
// sorted by (arrival, name) and allowed arrives all-false, len(allowed) ==
// len(apps). As with Policy.Arbitrate, apps is the Arbiter's own persistent
// view array and must be treated as read-only. scratch is the calling
// Arbiter's (never nil): whatever a policy needs room to estimate in goes
// there and not into the policy value, which other Arbiters may be deciding
// with at the same moment (see Scratch). The reason is a value (see Reason),
// so explaining a decision formats nothing; recheck follows
// Decision.RecheckAfter semantics.
type IndexedArbitrator interface {
	ArbitrateIndexed(now float64, apps []AppView, allowed []bool, scratch *Scratch) (reason Reason, recheck float64)
}

// Outcome is the result of one Arbiter.Arbitrate call. The Granted and
// Revoked slices are scratch owned by the Arbiter, valid until the next
// Arbitrate call; callers must not retain them.
type Outcome struct {
	// Acted is false when no application was in an I/O phase (nothing to
	// arbitrate, no decision logged).
	Acted bool
	// Reason is the policy's explanation for the decision.
	Reason Reason
	// RecheckAfter, when positive, asks the caller to re-arbitrate after
	// that many seconds even if nothing changes.
	RecheckAfter float64
	// Granted lists apps whose authorization flipped false→true, in
	// registration order.
	Granted []*AppState
	// Revoked lists apps whose authorization flipped true→false, in
	// registration order.
	Revoked []*AppState
}

// Arbiter owns the arbitration state machine shared by the simulator Layer
// and the network daemon: the registered applications, the arrival-ordered
// queue of those in an I/O phase with the AppViews handed to the policy, and
// the application of the policy's decision back onto per-app authorization
// bits.
//
// The queue is persistent and maintained incrementally, so a decision costs
// what changed since the last one rather than a rebuild: Inform inserts the
// application from the tail, End and Unregister remove it, every other
// AppState mutator rewrites its own view slot, and decision application
// visits only the applications whose authorization flipped. Steady-state
// arbitration reuses all scratch, the decision log included; with a policy
// implementing IndexedArbitrator the hot path performs no per-request
// allocation.
//
// The Arbiter is not goroutine-safe: the sim engine is single-threaded, and
// the daemon runs every request for a target under that target's shard lock
// (which is also what makes daemon decisions deterministic given a
// serialized request order).
type Arbiter struct {
	policy     Policy
	indexed    IndexedArbitrator // the policy's indexed form, nil if it has none
	policyName string            // policy.Name(), resolved once: a name may be formatted
	logBound   int               // <0 unlimited, 0 disabled, >0 keep last N records

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

	// log is append-only when unbounded, each record's Allowed cut from the
	// names arena, and Reset keeps the capacity of both; with a positive
	// bound it becomes a ring once full — logHead is the next overwrite slot
	// and each overwritten record's Allowed backing is reused.
	log     []DecisionRecord
	names   []string
	logHead int
}

// NewArbiter creates an arbiter running the given policy, with unlimited
// decision logging (the simulator default).
func NewArbiter(policy Policy) *Arbiter {
	if policy == nil {
		panic("core: nil policy")
	}
	indexed, _ := policy.(IndexedArbitrator)
	return &Arbiter{policy: policy, indexed: indexed, policyName: policy.Name(), logBound: -1}
}

// Policy returns the active policy.
func (ar *Arbiter) Policy() Policy { return ar.policy }

// SetIndexed does nothing: every Arbiter takes the indexed path whenever its
// policy has one. It stays only while benchmark/micro.go, frozen during the
// change that made it so, still calls it; both go with the next benchmark PR.
func (ar *Arbiter) SetIndexed(bool) {}

// Reset returns the arbiter to its just-constructed state while keeping the
// registered applications (in registration order) and the capacity of the
// queue, the decision scratch and the decision log with its names arena:
// every AppState goes back to Idle/unauthorized with an empty info stack, the
// queue empties, and the log restarts in place — what Log handed out is
// overwritten, so a holder that wants it past the Reset takes a CloneLog.
func (ar *Arbiter) Reset() {
	for _, a := range ar.apps {
		a.reset()
	}
	clear(ar.queue)
	ar.queue, ar.views, ar.auth = ar.queue[:0], ar.views[:0], ar.auth[:0]
	ar.head, ar.nAuth = 0, 0
	ar.log, ar.names, ar.logHead = ar.log[:0], ar.names[:0], 0
}

// reset returns the application to its just-registered protocol state.
func (a *AppState) reset() {
	a.state = Idle
	a.arrival = 0
	a.authorized = false
	a.cores = a.regCores // undo any Prepare(KeyCores) override
	a.bytesTotal, a.bytesDone = 0, 0
	a.files, a.rounds = 0, 0
	a.aloneBW = 0
	a.infoStack = a.infoStack[:0]
}

// SetLogBound bounds the decision log: negative keeps everything (default),
// zero disables logging, positive keeps the most recent n records in a ring
// whose steady state allocates nothing. Set it before the first Arbitrate;
// changing the bound later scrambles the ring order.
func (ar *Arbiter) SetLogBound(n int) { ar.logBound = n }

// Log returns the arbitration decision log, oldest first, valid until the
// next Reset. Once a bounded log has wrapped, this builds an ordered copy (a
// cold path; the hot path never calls it).
func (ar *Arbiter) Log() []DecisionRecord {
	if ar.logBound <= 0 || len(ar.log) < ar.logBound || ar.logHead == 0 {
		return ar.log
	}
	out := make([]DecisionRecord, 0, len(ar.log))
	out = append(out, ar.log[ar.logHead:]...)
	return append(out, ar.log[:ar.logHead]...)
}

// CloneLog copies a decision log deeply — records and Allowed names, which
// otherwise alias the Arbiter's arena — for a holder that keeps it past the
// Arbiter's next Reset.
func CloneLog(log []DecisionRecord) []DecisionRecord {
	out := slices.Clone(log)
	for i := range out {
		out[i].Allowed = slices.Clone(out[i].Allowed)
	}
	return out
}

// LastRecord returns the most recent decision record, or nil.
func (ar *Arbiter) LastRecord() *DecisionRecord {
	if len(ar.log) == 0 {
		return nil
	}
	if ar.logBound > 0 && len(ar.log) == ar.logBound {
		return &ar.log[(ar.logHead+ar.logBound-1)%ar.logBound]
	}
	return &ar.log[len(ar.log)-1]
}

// Apps returns the registered applications in registration order. The slice
// is owned by the Arbiter.
func (ar *Arbiter) Apps() []*AppState { return ar.apps }

// OtherAuthorized reports whether any registered application other than app
// currently holds authorization. The daemon and offline trace replay both
// use it to classify a deferred Wait as convoy (queued behind a holder)
// versus protocol (deferred with nobody authorized), so the classification
// cannot drift between live stats and replay.
func (ar *Arbiter) OtherAuthorized(app *AppState) bool {
	n := ar.nAuth
	if app != nil && app.ar == ar && app.authorized {
		n--
	}
	return n > 0
}

// Register adds an application. Names must be unique among currently
// registered applications.
func (ar *Arbiter) Register(name string, cores int) (*AppState, error) {
	if name == "" {
		return nil, fmt.Errorf("core: empty application name")
	}
	for _, a := range ar.apps {
		if a.name == name {
			return nil, fmt.Errorf("core: duplicate coordinator %q", name)
		}
	}
	a := &AppState{name: name, cores: cores, regCores: cores, idx: len(ar.apps), ar: ar}
	ar.apps = append(ar.apps, a)
	return a, nil
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
// current by the AppState mutators — applies the decision to the
// authorization bits that differ from it, and logs the outcome.
// Authorization changes are reported in registration order so the caller's
// follow-up actions (waking simulated processes, pushing grants to network
// clients) happen in a deterministic order.
func (ar *Arbiter) Arbitrate(now float64) Outcome {
	views := ar.views[ar.head:len(ar.views):len(ar.views)] // clipped: a policy's append must not reach the backing
	n := len(views)
	if n == 0 {
		return Outcome{}
	}
	if cap(ar.allowed) < n {
		ar.allowed = make([]bool, cap(ar.views))
	}
	allowed := ar.allowed[:n]
	clear(allowed)

	var reason Reason
	var recheck float64
	if ar.indexed != nil {
		reason, recheck = ar.indexed.ArbitrateIndexed(now, views, allowed, &ar.model)
	} else {
		dec := ar.policy.Arbitrate(now, views)
		reason, recheck = dec.Reason, dec.RecheckAfter
		for i := range views {
			allowed[i] = dec.Allowed[views[i].Name]
		}
	}

	queue, auth := ar.queue[ar.head:], ar.auth[ar.head:]
	ar.granted = ar.granted[:0]
	ar.revoked = ar.revoked[:0]
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

	if ar.logBound != 0 {
		wrap := ar.logBound > 0 && len(ar.log) == ar.logBound
		names, start := ar.names, len(ar.names) // append to the arena
		if wrap {
			names, start = ar.log[ar.logHead].Allowed[:0], 0 // reuse the evicted record's backing
		}
		for i := range views {
			if allowed[i] {
				names = append(names, views[i].Name)
			}
		}
		if !wrap { // clipped: a ring reuse that outgrows it must not overwrite its arena neighbour
			ar.names, names = names, names[start:len(names):len(names)]
		}
		sort.Strings(names)
		var rec *DecisionRecord // filled in place: a record is twelve words to copy
		if wrap {
			rec = &ar.log[ar.logHead]
			ar.logHead = (ar.logHead + 1) % ar.logBound
		} else {
			ar.log = append(ar.log, DecisionRecord{})
			rec = &ar.log[len(ar.log)-1]
		}
		rec.Time, rec.Policy, rec.Allowed, rec.Reason = now, ar.policyName, names, reason
	}

	return Outcome{
		Acted:        true,
		Reason:       reason,
		RecheckAfter: recheck,
		Granted:      ar.granted,
		Revoked:      ar.revoked,
	}
}

// sortByRegistration orders a decision's flips — found in queue order — by
// registration index. Almost every decision flips at most one application
// each way.
func sortByRegistration(apps []*AppState) {
	if len(apps) > 1 {
		slices.SortFunc(apps, func(a, b *AppState) int { return a.idx - b.idx })
	}
}
