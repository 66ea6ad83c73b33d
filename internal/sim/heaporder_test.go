package sim

import (
	"math/rand"
	"testing"
)

// orderModel is the reference for TestHeapMatchesSortedReference: every
// pending callback with the (time, seq) the engine should have given it. The
// engine must always fire the live entry that sorts first.
type orderModel struct {
	seq     uint64 // the engine's next sequence number, counted independently
	pending map[int]modelEntry
}

type modelEntry struct {
	time float64
	seq  uint64
}

// add records callback id as queued at time t and consumes a sequence number.
func (m *orderModel) add(id int, t float64) {
	m.pending[id] = modelEntry{time: t, seq: m.seq}
	m.seq++
}

// first returns the pending callback that sorts first by (time, seq).
func (m *orderModel) first() (int, modelEntry) {
	best, bestE := -1, modelEntry{}
	for id, e := range m.pending {
		if best < 0 || e.time < bestE.time || (e.time == bestE.time && e.seq < bestE.seq) {
			best, bestE = id, e
		}
	}
	return best, bestE
}

// TestHeapMatchesSortedReference drives the engine with seeded random
// operations — After, At, Schedule, Cancel (stale handles included), Timer
// re-arms and cancels, and Post — issued both before the run and from inside
// firing callbacks, on a coarse time grid so that most events share their
// instant with others. Every firing must be the callback a reference sorted
// by (time, seq) puts first: the event heap may be laid out any way it likes,
// but ties must fall to creation order.
func TestHeapMatchesSortedReference(t *testing.T) {
	const ops = 12000
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		m := &orderModel{pending: map[int]modelEntry{}}
		var (
			handles  []*Event // every handle ever returned, fired and cancelled ones too
			handleOf = map[*Event]int{}
			timers   []*Timer
			armedAs  []int // the callback id each timer's pending arming carries
			nextID   int
			done     int
			fired    int
			failed   bool
		)
		check := func(id int) {
			fired++
			want, we := m.first()
			if !failed && (id != want || e.Now() != we.time) {
				t.Errorf("seed %d: fired callback %d at t=%v, reference expects %d at (t=%v, seq=%d)",
					seed, id, e.Now(), want, we.time, we.seq)
				failed = true
			}
			delete(m.pending, id)
		}
		var step func()
		// when draws a future instant on a quarter-second grid, mostly close.
		when := func() float64 { return e.Now() + 0.25*float64(rng.Intn(5)) }
		step = func() {
			for n := rng.Intn(4); n > 0 && done < ops; n-- {
				done++
				id := nextID
				nextID++
				cb := func() { check(id); step() }
				switch rng.Intn(8) {
				case 0:
					d := when() - e.Now()
					m.add(id, e.Now()+d)
					e.After(d, cb)
				case 1:
					at := when()
					m.add(id, at)
					ev := e.At(at, cb)
					handles = append(handles, ev)
					handleOf[ev] = id
				case 2:
					d := when() - e.Now()
					m.add(id, e.Now()+d)
					ev := e.Schedule(d, cb)
					handles = append(handles, ev)
					handleOf[ev] = id
				case 3:
					if len(handles) > 0 {
						ev := handles[rng.Intn(len(handles))]
						delete(m.pending, handleOf[ev]) // a no-op in both for a stale handle
						e.Cancel(ev)
					}
				case 4, 5:
					k := rng.Intn(len(timers))
					if armedAs[k] >= 0 {
						delete(m.pending, armedAs[k])
					}
					at := when()
					armedAs[k] = id
					m.add(id, at)
					timers[k].ScheduleAt(at)
				case 6:
					k := rng.Intn(len(timers))
					if armedAs[k] >= 0 {
						delete(m.pending, armedAs[k])
						armedAs[k] = -1
					}
					timers[k].Cancel()
				case 7:
					m.add(id, e.Now())
					e.Post(cb)
				}
			}
		}
		for k := 0; k < 6; k++ {
			armedAs = append(armedAs, -1)
			timers = append(timers, e.NewTimer(func() {
				id := armedAs[k]
				armedAs[k] = -1
				check(id)
				step()
			}))
		}
		for done < ops && !failed {
			step()
			e.Run()
		}
		if len(m.pending) != 0 && !failed {
			t.Errorf("seed %d: %d callbacks never fired", seed, len(m.pending))
		}
		if fired < ops/4 {
			t.Errorf("seed %d: only %d of %d operations fired a callback", seed, fired, ops)
		}
	}
}
