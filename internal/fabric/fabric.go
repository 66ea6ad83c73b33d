// Package fabric models a network fabric as a set of capacity-limited links
// and flows that traverse several links at once, with rates assigned by
// global max-min fairness (progressive filling). It generalizes the
// single-resource model of internal/fluid: a flow from a client NIC through
// a switch to a storage server is limited by its tightest link, and freed
// capacity is redistributed among the remaining flows.
//
// The paper's platforms have exactly this structure — compute-node NICs, a
// shared InfiniBand switch or BG/P tree, and storage servers — and the
// simulator's default single-resource approximation (per-request static
// rate caps) is validated against this model in the ablation benchmarks.
//
// The solver is the hot path of every TrueNetwork simulation, so it is
// index-based and allocation-free in steady state: links carry dense integer
// IDs indexing the capacities and reusable per-link scratch arrays, a flow's
// path holds each link's ID beside it so the fill reads no Link, memberships
// are slices with swap-delete (no maps), and all iteration is in slice
// order, which makes floating-point accumulation order — and therefore every
// simulated rate — reproducible bit-for-bit across runs.
//
// A caller making several changes at one instant — a striped request starting
// one flow per server — brackets them with Hold and Release. Inside the hold
// every Start, Cancel and SetCapacity still integrates progress, links or
// unlinks its flow and completes whatever has finished, exactly where it
// would otherwise, so flow order, link membership order and completion
// callback order are those of the unbracketed calls; only the progressive
// fill and the re-arming of the completion timer wait for the outermost
// Release, which runs them once if anything changed. Rates are stale until
// then, and the clock must not advance inside a hold. Rates and finish times
// come out bit-identical to the unbracketed calls'.
package fabric

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Link is one capacity-limited element of the fabric. Links have dense IDs
// (creation order) that index the fabric's capacities and the solver's
// per-link scratch arrays.
type Link struct {
	fab   *Fabric
	id    int
	name  string
	flows []linkRef // flows currently crossing this link
}

// linkRef is one entry of a link's membership slice: the flow plus the index
// of this link within the flow's own path, so a swap-delete on either side
// can repair the other side's back-index in O(1).
type linkRef struct {
	f    *Flow
	slot int // index of this link's hop in f.path
}

// hop is one link of a flow's path: the link, its dense ID (so the solver
// indexes its arrays without reading the Link) and the flow's position in
// the link's membership slice.
type hop struct {
	link *Link
	id   int
	pos  int // index of the flow in link.flows
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link capacity.
func (l *Link) Capacity() float64 { return l.fab.capacity[l.id] }

// Flows returns the number of flows currently crossing the link.
func (l *Link) Flows() int { return len(l.flows) }

// SetCapacity changes the link capacity and reassigns all rates.
func (l *Link) SetCapacity(c float64) {
	if c < 0 || math.IsNaN(c) {
		panic("fabric: negative or NaN capacity")
	}
	l.fab.advance()
	l.fab.capacity[l.id] = c
	l.fab.reassign()
}

// Flow is a transfer crossing one or more links.
type Flow struct {
	fab       *Fabric
	id        uint64 // creation sequence; total-order tiebreak
	idx       int    // index in fab.flows; -1 once done or cancelled
	name      string
	path      []hop
	weight    float64
	remaining float64
	total     float64
	eps       float64 // completion tolerance: done once remaining <= eps
	rate      float64
	done      bool
	cancelled bool
	onDone    func()
}

// Name returns the flow name.
func (f *Flow) Name() string { return f.name }

// Rate returns the currently assigned rate; unspecified inside a Hold.
func (f *Flow) Rate() float64 { return f.rate }

// Done reports completion.
func (f *Flow) Done() bool { return f.done }

// Remaining returns the bytes left, integrated to the current time.
func (f *Flow) Remaining() float64 {
	if f.done || f.cancelled {
		return 0
	}
	f.fab.advance()
	return f.remaining
}

// Fabric owns the links and flows and assigns max-min fair rates.
type Fabric struct {
	eng        *sim.Engine
	links      []*Link
	capacity   []float64 // indexed by Link.id
	flows      []*Flow   // active flows, dense, swap-delete on removal
	nextID     uint64
	lastUpdate float64
	completion *sim.Timer

	// Flow recycling. Completed and cancelled flows retire (bounded) but are
	// NOT reused within the same run: a caller may legitimately hold a
	// finished flow's handle and read Done/Remaining. Reset moves retired
	// flows to the free list, so a reused fabric replays a run without
	// re-paying its flow allocations.
	flowFree    []*Flow
	flowRetired []*Flow

	// Solver scratch, reused across reassign calls so the steady state
	// performs no allocations. Per-link arrays are indexed by Link.id;
	// frozen is indexed by Flow.idx.
	linkRemaining []float64
	linkActive    []int
	linkWeight    []float64
	frozen        []bool
	finished      []*Flow

	held  int  // Hold nesting depth
	stale bool // a change inside the hold awaits its fill
}

// New creates an empty fabric.
func New(eng *sim.Engine) *Fabric {
	fb := &Fabric{eng: eng, lastUpdate: eng.Now()}
	fb.completion = eng.NewTimer(fb.onCompletion)
	return fb
}

// NewLink adds a link with the given capacity.
func (fb *Fabric) NewLink(name string, capacity float64) *Link {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("fabric: negative or NaN capacity %v", capacity))
	}
	l := &Link{fab: fb, id: len(fb.links), name: name}
	fb.links = append(fb.links, l)
	fb.capacity = append(fb.capacity, capacity)
	fb.linkRemaining = append(fb.linkRemaining, 0)
	fb.linkActive = append(fb.linkActive, 0)
	fb.linkWeight = append(fb.linkWeight, 0)
	return l
}

// Start begins a transfer of `bytes` across the given links (all must
// belong to this fabric). Weight scales the flow's share on every link it
// crosses. onDone runs in scheduler context at completion.
//
// The links slice is copied into flow-owned storage, so callers may reuse
// their own scratch slice across Start calls.
func (fb *Fabric) Start(name string, bytes, weight float64, links []*Link, onDone func()) *Flow {
	if bytes < 0 || math.IsNaN(bytes) {
		panic(fmt.Sprintf("fabric: bad byte count %v", bytes))
	}
	if !(weight > 0) { // also rejects NaN
		panic("fabric: weight must be positive")
	}
	if len(links) == 0 {
		panic("fabric: flow must cross at least one link")
	}
	f := fb.getFlow()
	f.fab, f.id, f.name, f.weight = fb, fb.nextID, name, weight
	f.remaining, f.total, f.onDone = bytes, bytes, onDone
	f.eps = bytes * 1e-9
	if f.eps < 1e-6 {
		f.eps = 1e-6
	}
	f.rate, f.done, f.cancelled = 0, false, false
	fb.nextID++
	fb.advance()
	f.idx = len(fb.flows)
	fb.flows = append(fb.flows, f)
	f.path = f.path[:0]
	for k, l := range links {
		if l.fab != fb {
			panic("fabric: link belongs to a different fabric")
		}
		f.path = append(f.path, hop{link: l, id: l.id, pos: len(l.flows)})
		l.flows = append(l.flows, linkRef{f: f, slot: k})
	}
	fb.reassign()
	return f
}

// Hold defers the rate computation of the changes that follow to the
// matching Release (see the package comment). Holds nest.
func (fb *Fabric) Hold() { fb.held++ }

// Release ends a Hold; the outermost one recomputes the rates if anything
// changed since its Hold.
func (fb *Fabric) Release() {
	if fb.held == 0 {
		panic("fabric: Release without Hold")
	}
	fb.held--
	if fb.held == 0 && fb.stale {
		fb.fill()
	}
}

// getFlow pops a pooled flow or allocates a fresh one.
func (fb *Fabric) getFlow() *Flow {
	if n := len(fb.flowFree); n > 0 {
		f := fb.flowFree[n-1]
		fb.flowFree[n-1] = nil
		fb.flowFree = fb.flowFree[:n-1]
		return f
	}
	return &Flow{}
}

// maxRetired bounds the retired-flow list: a run that churns through more
// flows than this simply lets the excess be garbage collected, trading a
// little steady-state allocation for a bounded pool.
const maxRetired = 4096

// retire parks a finished or cancelled flow for recycling at the next Reset.
func (fb *Fabric) retire(f *Flow) {
	if len(fb.flowRetired) < maxRetired {
		fb.flowRetired = append(fb.flowRetired, f)
	}
}

// Cancel removes an unfinished flow; its onDone never runs.
func (f *Flow) Cancel() {
	if f.done || f.cancelled {
		return
	}
	f.fab.advance()
	f.cancelled = true
	f.fab.remove(f)
	f.onDone = nil
	f.fab.retire(f)
	f.fab.reassign()
}

// remove unlinks f from the active set and every link it crosses, repairing
// the swapped-in entries' back-indices.
func (fb *Fabric) remove(f *Flow) {
	for _, h := range f.path {
		l, p := h.link, h.pos
		last := len(l.flows) - 1
		if p != last {
			moved := l.flows[last]
			l.flows[p] = moved
			moved.f.path[moved.slot].pos = p
		}
		l.flows[last] = linkRef{}
		l.flows = l.flows[:last]
	}
	last := len(fb.flows) - 1
	if f.idx != last {
		moved := fb.flows[last]
		fb.flows[f.idx] = moved
		moved.idx = f.idx
	}
	fb.flows[last] = nil
	fb.flows = fb.flows[:last]
	f.idx = -1
}

// advance integrates progress of the active flows to the current time.
func (fb *Fabric) advance() {
	now := fb.eng.Now()
	dt := now - fb.lastUpdate
	if dt > 0 {
		for _, f := range fb.flows {
			f.remaining -= f.rate * dt
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
	}
	fb.lastUpdate = now
}

// reassign completes finished flows, recomputes max-min rates and schedules
// the next completion. All simultaneous completions are collected and
// removed in one batch, so N flows finishing at the same instant cost one
// progressive fill, not N. Inside a hold the recomputation is left to the
// Release; completions are not.
func (fb *Fabric) reassign() {
	finished := fb.finished[:0]
	for _, f := range fb.flows {
		if f.remaining <= f.eps {
			f.remaining = 0
			f.done = true
			f.rate = 0
			finished = append(finished, f)
		}
	}
	for _, f := range finished {
		fb.remove(f)
	}

	if fb.held > 0 {
		fb.stale = true
	} else {
		fb.fill()
	}

	// Deterministic callback order: sort the batch by the documented total
	// order before dispatch, so completion side effects replay identically.
	sortFlows(finished)
	for _, f := range finished {
		if f.onDone != nil {
			fb.eng.Post(f.onDone)
		}
	}
	// Retain the (now drained) batch buffer, dropping the flow pointers so
	// completed flows do not leak through the scratch; the flows themselves
	// retire for recycling at the next Reset.
	for i, f := range finished {
		f.onDone = nil
		fb.retire(f)
		finished[i] = nil
	}
	fb.finished = finished[:0]
}

// fill assigns max-min rates to the active flows and arms the completion
// timer for the first of them to finish.
func (fb *Fabric) fill() {
	fb.stale = false
	if fb.eng.Tracing() {
		fb.eng.Tracef("fabric: fill flows=%d", len(fb.flows))
	}
	fb.progressiveFill()

	next := math.Inf(1)
	for _, f := range fb.flows {
		if f.rate > 0 {
			if t := f.remaining / f.rate; t < next {
				next = t
			}
		}
	}
	if math.IsInf(next, 1) {
		fb.completion.Cancel()
	} else {
		fb.completion.Schedule(next) // re-armed in place if still pending
	}
}

// Reset returns the fabric to a pristine state on a freshly reset engine:
// no active flows, no hold, flow IDs restarted, progress clock re-anchored at
// the engine's current time. Links — and any capacity changes made to them —
// survive, as do the solver scratch arrays and the retired flows, which move
// to the free list so a reused fabric replays a run allocation-free.
//
// Call Reset only after sim.Engine.Reset (or with no pending completion
// event); flow handles from before the reset must not be used afterwards,
// as their structs are recycled.
func (fb *Fabric) Reset() {
	// A run stopped mid-flight leaves active flows; retire them too. Link
	// membership lists are wiped wholesale below.
	for _, f := range fb.flows {
		f.idx = -1
		f.onDone = nil
		fb.retire(f)
	}
	for _, l := range fb.links {
		for i := range l.flows {
			l.flows[i] = linkRef{}
		}
		l.flows = l.flows[:0]
	}
	for i := range fb.flows {
		fb.flows[i] = nil
	}
	fb.flows = fb.flows[:0]
	fb.flowFree = append(fb.flowFree, fb.flowRetired...)
	for i := range fb.flowRetired {
		fb.flowRetired[i] = nil
	}
	fb.flowRetired = fb.flowRetired[:0]
	fb.nextID = 0
	fb.lastUpdate = fb.eng.Now()
	fb.completion.Cancel()
	fb.held, fb.stale = 0, false
}

func (fb *Fabric) onCompletion() {
	fb.advance()
	fb.reassign()
}

// progressiveFill implements weighted global max-min fairness: rates grow
// proportionally to weights until a link saturates; flows crossing the
// saturated link freeze, remaining capacity keeps filling the others.
//
// The fill loop runs entirely on the fabric's scratch arrays and iterates
// links and flows in dense ID / slice order, so it allocates nothing and
// accumulates floats in a reproducible order. Complexity is O(B · (F·L̄ +
// L)) for B saturation rounds (bottleneck links), F active flows crossing
// L̄ links each, and L links total.
func (fb *Fabric) progressiveFill() {
	remaining := fb.linkRemaining
	active := fb.linkActive
	weight := fb.linkWeight
	copy(remaining, fb.capacity)
	clear(active)
	clear(weight)
	if cap(fb.frozen) < len(fb.flows) {
		fb.frozen = make([]bool, len(fb.flows))
	}
	frozen := fb.frozen[:len(fb.flows)]
	for i, f := range fb.flows {
		frozen[i] = false
		f.rate = 0
		for _, h := range f.path {
			active[h.id]++
			weight[h.id] += f.weight
		}
	}
	unfrozen := len(fb.flows)

	for unfrozen > 0 {
		// Find the link that saturates first: the one minimizing
		// remaining / weight-of-active-flows.
		level := math.Inf(1)
		tight := -1
		for i := range remaining {
			if active[i] == 0 || weight[i] <= 0 {
				continue
			}
			lv := remaining[i] / weight[i]
			if lv < level {
				level = lv
				tight = i
			}
		}
		if tight < 0 || math.IsInf(level, 1) {
			// No constraining link: remaining flows are unbounded. Give
			// them infinite rate (they complete immediately).
			for i, f := range fb.flows {
				if !frozen[i] {
					f.rate = math.Inf(1)
				}
			}
			return
		}
		// Raise every unfrozen flow's rate by level*weight; freeze the
		// flows on the tight link.
		for i, f := range fb.flows {
			if frozen[i] {
				continue
			}
			inc := level * f.weight
			f.rate += inc
			for _, h := range f.path {
				remaining[h.id] -= inc
				if remaining[h.id] < 0 {
					remaining[h.id] = 0
				}
			}
		}
		for _, ref := range fb.links[tight].flows {
			f := ref.f
			if frozen[f.idx] {
				continue
			}
			frozen[f.idx] = true
			unfrozen--
			for _, h := range f.path {
				active[h.id]--
				weight[h.id] -= f.weight
			}
		}
	}
}

// sortFlows orders a completion batch by (name, total, id). The id — the
// fabric-wide creation sequence number — makes the order total: two flows
// never share an id, so batches with duplicate names and sizes still
// dispatch their callbacks in a single well-defined (creation) order.
func sortFlows(fs []*Flow) {
	// Insertion sort; n is tiny.
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0; j-- {
			a, b := fs[j-1], fs[j]
			if a.name < b.name ||
				(a.name == b.name && (a.total < b.total ||
					(a.total == b.total && a.id < b.id))) {
				break
			}
			fs[j-1], fs[j] = fs[j], fs[j-1]
		}
	}
}
