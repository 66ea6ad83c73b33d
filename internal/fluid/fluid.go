// Package fluid implements a capacity-sharing ("fluid flow") resource model
// on top of the sim engine.
//
// A Resource has a capacity in units/second (typically bytes/s). Jobs with a
// fixed amount of work share that capacity by weighted max-min fairness:
// capacity is divided proportionally to job weights, except that a job never
// receives more than its own rate cap; surplus from capped jobs is
// redistributed to the others. The rates come from the simulator's one
// max-min kernel (internal/maxmin), with the resource as one link every job
// crosses and each job capped by its own cap. Whenever the job set or the
// capacity changes, rates are recomputed, in-flight progress is integrated,
// and the next completion event is rescheduled.
//
// This is the contention primitive of the whole simulator: a parallel file
// system server under concurrent load is a Resource, and "interference" is
// nothing more than jobs sharing its capacity.
package fluid

import (
	"fmt"
	"math"

	"repro/internal/maxmin"
	"repro/internal/sim"
)

// Resource is a shared capacity. Not safe for concurrent use; all access
// happens in scheduler context, which the sim engine serializes.
type Resource struct {
	eng        *sim.Engine
	name       string
	capacity   float64
	initCap    float64 // capacity at construction, restored by Reset
	jobs       []*Job
	lastUpdate float64
	completion *sim.Timer

	// OnRateChange, if non-nil, is invoked after every rate reallocation
	// with the new total allocated rate. The disk cache model uses it to
	// integrate dirty bytes.
	OnRateChange func(totalRate float64)

	// Reallocation scratch, reused so the steady-state hot path performs
	// no allocations.
	finished []*Job
	share    share

	// Job recycling. Completed and cancelled jobs retire (bounded) but are
	// not reused within the same run — callers may hold a finished job's
	// handle and read Done/Remaining. Reset moves retired jobs to the free
	// list, so a reused resource replays a run without re-paying its job
	// allocations.
	jobFree    []*Job
	jobRetired []*Job
}

// Job is a unit of work being serviced by a Resource.
type Job struct {
	res       *Resource
	name      string
	total     float64
	remaining float64
	weight    float64
	rateCap   float64 // 0 means uncapped
	rate      float64
	onDone    func()
	done      bool
	cancelled bool
}

// NewResource creates a resource with the given capacity (units/second).
func NewResource(eng *sim.Engine, name string, capacity float64) *Resource {
	if capacity < 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("fluid: negative or NaN capacity %v", capacity))
	}
	r := &Resource{eng: eng, name: name, capacity: capacity, initCap: capacity, lastUpdate: eng.Now()}
	r.completion = eng.NewTimer(r.onCompletion)
	return r
}

// Reset returns the resource to its just-constructed state on a freshly
// reset engine: no jobs, construction-time capacity, progress clock
// re-anchored at the engine's current time. The reallocation scratch
// survives, and retired jobs move to the free list so a reused resource
// replays a run allocation-free. Job handles from before the reset must not
// be used afterwards, as their structs are recycled.
func (r *Resource) Reset() {
	for _, j := range r.jobs {
		j.cancelled = true
		j.onDone = nil
		r.retire(j)
	}
	for i := range r.jobs {
		r.jobs[i] = nil
	}
	r.jobs = r.jobs[:0]
	r.jobFree = append(r.jobFree, r.jobRetired...)
	for i := range r.jobRetired {
		r.jobRetired[i] = nil
	}
	r.jobRetired = r.jobRetired[:0]
	r.capacity = r.initCap
	r.lastUpdate = r.eng.Now()
	r.completion.Cancel()
}

// maxRetired bounds the retired-job list; beyond it, excess jobs are left
// to the garbage collector.
const maxRetired = 4096

func (r *Resource) retire(j *Job) {
	if len(r.jobRetired) < maxRetired {
		r.jobRetired = append(r.jobRetired, j)
	}
}

// getJob pops a pooled job or allocates a fresh one.
func (r *Resource) getJob() *Job {
	if n := len(r.jobFree); n > 0 {
		j := r.jobFree[n-1]
		r.jobFree[n-1] = nil
		r.jobFree = r.jobFree[:n-1]
		return j
	}
	return &Job{}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the current capacity.
func (r *Resource) Capacity() float64 { return r.capacity }

// Active returns the number of in-flight jobs.
func (r *Resource) Active() int { return len(r.jobs) }

// SetCapacity changes the capacity and reallocates rates.
func (r *Resource) SetCapacity(c float64) {
	if c < 0 || math.IsNaN(c) {
		panic(fmt.Sprintf("fluid: negative or NaN capacity %v", c))
	}
	if c == r.capacity {
		return
	}
	r.advance()
	r.capacity = c
	r.reallocate()
}

// Submit adds a job of `work` units with the given fairness weight and rate
// cap (0 = uncapped). onDone runs in scheduler context when the job's work
// reaches zero. Work of zero completes on the next tick.
func (r *Resource) Submit(name string, work, weight, rateCap float64, onDone func()) *Job {
	if work < 0 || math.IsNaN(work) {
		panic(fmt.Sprintf("fluid: bad work %v", work))
	}
	if !(weight > 0) { // also rejects NaN
		panic(fmt.Sprintf("fluid: weight must be positive, got %v", weight))
	}
	if rateCap < 0 {
		panic(fmt.Sprintf("fluid: negative rate cap %v", rateCap))
	}
	j := r.getJob()
	*j = Job{
		res: r, name: name, total: work, remaining: work,
		weight: weight, rateCap: rateCap, onDone: onDone,
	}
	r.advance()
	r.jobs = append(r.jobs, j)
	r.reallocate()
	return j
}

// Cancel removes an unfinished job from the resource. Its onDone callback
// never runs. Cancelling a finished or cancelled job is a no-op.
func (j *Job) Cancel() {
	if j.done || j.cancelled {
		return
	}
	r := j.res
	r.advance()
	j.cancelled = true
	r.remove(j)
	j.onDone = nil
	r.retire(j)
	r.reallocate()
}

// Remaining returns the work left, integrated to the current virtual time.
func (j *Job) Remaining() float64 {
	if j.done || j.cancelled {
		return 0
	}
	j.res.advance()
	return j.remaining
}

// Rate returns the currently allocated service rate.
func (j *Job) Rate() float64 { return j.rate }

// Done reports whether the job completed.
func (j *Job) Done() bool { return j.done }

// Name returns the job name.
func (j *Job) Name() string { return j.name }

func (r *Resource) remove(j *Job) {
	for i, x := range r.jobs {
		if x == j {
			r.jobs = append(r.jobs[:i], r.jobs[i+1:]...)
			return
		}
	}
}

// advance integrates job progress from lastUpdate to now at current rates.
func (r *Resource) advance() {
	now := r.eng.Now()
	dt := now - r.lastUpdate
	if dt < 0 {
		panic("fluid: time went backwards")
	}
	if dt > 0 {
		for _, j := range r.jobs {
			j.remaining -= j.rate * dt
			if j.remaining < 0 {
				j.remaining = 0
			}
		}
	}
	r.lastUpdate = now
}

// eps returns the completion tolerance for a job: float error accumulated
// over repeated advances stays far below this.
func (j *Job) eps() float64 {
	e := j.total * 1e-9
	if e < 1e-6 {
		e = 1e-6
	}
	return e
}

// reallocate recomputes rates through the max-min kernel and schedules the
// next completion event. Jobs already at (or within tolerance of) zero work
// are completed immediately.
func (r *Resource) reallocate() {
	// Complete anything that is effectively done first. Take ownership of
	// the batch scratch for the duration: OnRateChange may legally
	// re-enter reallocate (the disk cache model does), and a re-entrant
	// call must not scribble over this call's in-flight batch.
	finished := r.finished[:0]
	r.finished = nil
	live := r.jobs[:0]
	for _, j := range r.jobs {
		if j.remaining <= j.eps() {
			j.remaining = 0
			j.done = true
			j.rate = 0
			finished = append(finished, j)
		} else {
			live = append(live, j)
		}
	}
	// Clear the tail slots vacated by finished jobs so they don't leak
	// through the backing array.
	for i := len(live); i < len(live)+len(finished); i++ {
		r.jobs[i] = nil
	}
	r.jobs = live

	r.share.begin(r.capacity)
	for _, j := range r.jobs {
		r.share.add(j.weight, j.rateCap)
	}
	rated := r.share.fill()
	var total float64
	for i, j := range r.jobs {
		j.rate = rated[i].Rate
		total += j.rate
	}

	// Schedule next completion.
	r.completion.Cancel()
	next := math.Inf(1)
	for _, j := range r.jobs {
		if j.rate > 0 {
			t := j.remaining / j.rate
			if t < next {
				next = t
			}
		}
	}
	if !math.IsInf(next, 1) {
		r.completion.Schedule(next)
	}

	if r.OnRateChange != nil {
		r.OnRateChange(total)
	}
	for _, j := range finished {
		if j.onDone != nil {
			// Run the callback via the event queue so completion side
			// effects interleave deterministically with other events.
			r.eng.Post(j.onDone)
		}
	}
	for i, j := range finished {
		j.onDone = nil
		r.retire(j)
		finished[i] = nil
	}
	r.finished = finished[:0]
}

func (r *Resource) onCompletion() {
	r.advance()
	r.reallocate()
}

// share is a max-min problem of one link every flow crosses, each flow
// capped by its own rate cap. Its scratch is reused, so rating n flows
// allocates nothing once it has rated n before.
type share struct {
	net   maxmin.Net
	index []int // 0, 1, 2, …: the link's members
}

// onLink is the link list of every flow of a share: the one link, link 0.
var onLink = []int{0}

// begin starts a problem on a link of the given capacity.
func (s *share) begin(capacity float64) {
	s.net.Links = append(s.net.Links[:0], maxmin.Link{Capacity: capacity})
	s.net.Flows = s.net.Flows[:0]
}

// add appends a flow of the given weight and rate cap (0 = uncapped).
func (s *share) add(weight, rateCap float64) {
	s.net.Flows = append(s.net.Flows, maxmin.Flow{Weight: weight, Cap: rateCap, Links: onLink})
}

// fill rates the flows added since begin; they are the kernel's, in the
// order of add, and valid until the next begin.
func (s *share) fill() []maxmin.Flow {
	n := len(s.net.Flows)
	for len(s.index) < n {
		s.index = append(s.index, len(s.index))
	}
	s.net.Links[0].Members = s.index[:n]
	s.net.Fill()
	return s.net.Flows
}
