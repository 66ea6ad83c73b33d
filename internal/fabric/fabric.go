// Package fabric models a network fabric as a set of capacity-limited links
// and flows that traverse several links at once, rated by the simulator's
// one max-min kernel (internal/maxmin, progressive filling) on the whole
// link graph: a flow from a client NIC through a switch to a storage server
// is limited by its tightest link, and freed capacity is redistributed among
// the remaining flows. internal/fluid rates a single resource with the same
// kernel.
//
// The paper's platforms have exactly this structure — compute-node NICs, a
// shared InfiniBand switch or BG/P tree, and storage servers — and the
// simulator's default single-resource approximation (per-request static
// rate caps) is validated against this model in the ablation benchmarks.
//
// The fill is the hot path of every TrueNetwork simulation, so the fabric
// keeps its links and flows in the kernel's own dense form and changes it in
// place: a Link's ID indexes the kernel's links, an active Flow's index the
// kernel's flows, memberships are slices with swap-delete (no maps), and
// nothing is rebuilt per fill. All iteration is in slice order, which makes
// floating-point accumulation order — and therefore every simulated rate —
// reproducible bit-for-bit across runs.
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

	"repro/internal/maxmin"
	"repro/internal/sim"
)

// Link is one capacity-limited element of the fabric. Links have dense IDs
// (creation order) that index the kernel's links.
type Link struct {
	fab  *Fabric
	id   int
	name string
}

// Name returns the link name.
func (l *Link) Name() string { return l.name }

// Capacity returns the link capacity.
func (l *Link) Capacity() float64 { return l.fab.net.Links[l.id].Capacity }

// Flows returns the number of flows currently crossing the link.
func (l *Link) Flows() int { return len(l.fab.net.Links[l.id].Members) }

// SetCapacity changes the link capacity and reassigns all rates.
func (l *Link) SetCapacity(c float64) {
	if c < 0 || math.IsNaN(c) {
		panic("fabric: negative or NaN capacity")
	}
	l.fab.advance()
	l.fab.net.Links[l.id].Capacity = c
	l.fab.reassign()
}

// Flow is a transfer crossing one or more links. While it is active its
// weight, links and rate are the kernel's flow at its index.
type Flow struct {
	fab       *Fabric
	id        uint64 // creation sequence; total-order tiebreak
	idx       int    // index in fab.flows and the kernel's flows; -1 once done or cancelled
	name      string
	links     []int // the IDs of the links crossed, the kernel flow's Links
	pos       []int // the flow's position in each crossed link's Members
	remaining float64
	total     float64
	eps       float64 // completion tolerance: done once remaining <= eps
	done      bool
	cancelled bool
	onDone    func()
}

// Name returns the flow name.
func (f *Flow) Name() string { return f.name }

// Rate returns the currently assigned rate, 0 once the flow is done or
// cancelled; unspecified inside a Hold.
func (f *Flow) Rate() float64 {
	if f.idx < 0 {
		return 0
	}
	return f.fab.net.Flows[f.idx].Rate
}

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
	flows      []*Flow    // active flows, dense, swap-delete on removal
	net        maxmin.Net // Links by Link.id, Flows by Flow.idx
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

	finished []*Flow // completion batch scratch

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
	l := &Link{fab: fb, id: len(fb.net.Links), name: name}
	fb.net.Links = append(fb.net.Links, maxmin.Link{Capacity: capacity})
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
	f.fab, f.id, f.name = fb, fb.nextID, name
	f.remaining, f.total, f.onDone = bytes, bytes, onDone
	f.eps = bytes * 1e-9
	if f.eps < 1e-6 {
		f.eps = 1e-6
	}
	f.done, f.cancelled = false, false
	fb.nextID++
	fb.advance()
	f.idx = len(fb.flows)
	fb.flows = append(fb.flows, f)
	f.links, f.pos = f.links[:0], f.pos[:0]
	for _, l := range links {
		if l.fab != fb {
			panic("fabric: link belongs to a different fabric")
		}
		link := &fb.net.Links[l.id]
		f.links = append(f.links, l.id)
		f.pos = append(f.pos, len(link.Members))
		link.Members = append(link.Members, f.idx)
	}
	fb.net.Flows = append(fb.net.Flows, maxmin.Flow{Weight: weight, Links: f.links})
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
	net := &fb.net
	for k, l := range f.links {
		link, p := &net.Links[l], f.pos[k]
		last := len(link.Members) - 1
		if p != last {
			moved := fb.flows[link.Members[last]]
			link.Members[p] = link.Members[last]
			for j := range moved.links {
				if moved.links[j] == l && moved.pos[j] == last {
					moved.pos[j] = p
					break
				}
			}
		}
		link.Members = link.Members[:last]
	}
	last := len(fb.flows) - 1
	if i := f.idx; i != last {
		moved := fb.flows[last]
		fb.flows[i], net.Flows[i] = moved, net.Flows[last]
		moved.idx = i
		for k, l := range moved.links {
			net.Links[l].Members[moved.pos[k]] = i
		}
	}
	fb.flows[last], net.Flows[last] = nil, maxmin.Flow{}
	fb.flows, net.Flows = fb.flows[:last], net.Flows[:last]
	f.idx = -1
}

// advance integrates progress of the active flows to the current time.
func (fb *Fabric) advance() {
	now := fb.eng.Now()
	dt := now - fb.lastUpdate
	if dt > 0 {
		for i, f := range fb.flows {
			f.remaining -= fb.net.Flows[i].Rate * dt
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
	fb.net.Fill()

	next := math.Inf(1)
	for i, f := range fb.flows {
		if r := fb.net.Flows[i].Rate; r > 0 {
			if t := f.remaining / r; t < next {
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
// survive, as do the kernel's arrays and the retired flows, which move
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
	for l := range fb.net.Links {
		fb.net.Links[l].Members = fb.net.Links[l].Members[:0]
	}
	for i := range fb.flows {
		fb.flows[i], fb.net.Flows[i] = nil, maxmin.Flow{}
	}
	fb.flows, fb.net.Flows = fb.flows[:0], fb.net.Flows[:0]
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
