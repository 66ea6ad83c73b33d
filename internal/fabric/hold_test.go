package fabric

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// A schedule is a list of instants; at each, a group of operations hits the
// fabric. play runs it with every group bracketed by Hold/Release, or bare.

type opKind int

const (
	opStart opKind = iota
	opCancel
	opSetCap
)

type op struct {
	kind   opKind
	name   string  // opStart
	bytes  float64 // opStart
	weight float64 // opStart
	links  []int   // opStart: link indices
	flow   int     // opCancel: index in start order
	link   int     // opSetCap
	cap    float64 // opSetCap
	nest   bool    // held runs wrap this one operation in a hold of its own
}

type instant struct {
	at  float64
	ops []op
}

type schedule struct {
	caps     []float64
	instants []instant
}

// outcome is everything a schedule lets one observe.
type outcome struct {
	rates  [][]float64 // after each instant, the rate of every flow started so far
	finish []float64   // per flow in start order; -1 if it never completed
	order  []int       // flows in the order their onDone ran
	fills  int
}

// countFills installs a tracer that counts the fabric's fills.
func countFills(eng *sim.Engine, fills *int) {
	eng.SetTracer(sim.TracerFunc(func(_ float64, format string, _ ...any) {
		if format == "fabric: fill flows=%d" {
			*fills++
		}
	}))
}

func play(sc schedule, held bool) outcome {
	eng := sim.NewEngine()
	fb := New(eng)
	var out outcome
	countFills(eng, &out.fills)
	links := make([]*Link, len(sc.caps))
	for i, c := range sc.caps {
		links[i] = fb.NewLink(fmt.Sprintf("l%d", i), c)
	}
	var flows []*Flow
	var path []*Link
	// Every instant is queued before the run starts, so at a tie an instant
	// runs before the completion timer: its first operation is then the one
	// that finds the due flows finished.
	for _, in := range sc.instants {
		eng.At(in.at, func() {
			if held {
				fb.Hold()
			}
			for _, o := range in.ops {
				if held && o.nest {
					fb.Hold()
				}
				switch o.kind {
				case opStart:
					path = path[:0]
					for _, l := range o.links {
						path = append(path, links[l])
					}
					i := len(flows)
					out.finish = append(out.finish, -1)
					flows = append(flows, fb.Start(o.name, o.bytes, o.weight, path, func() {
						out.finish[i] = eng.Now()
						out.order = append(out.order, i)
					}))
				case opCancel:
					flows[o.flow].Cancel()
				case opSetCap:
					links[o.link].SetCapacity(o.cap)
				}
				if held && o.nest {
					fb.Release()
				}
			}
			if held {
				fb.Release()
			}
			rates := make([]float64, len(flows))
			for i, f := range flows {
				if !f.cancelled { // Cancel leaves the rate it found: not a result
					rates[i] = f.Rate()
				}
			}
			out.rates = append(out.rates, rates)
		})
	}
	eng.Run()
	return out
}

// randomSchedule draws sizes, capacities and times from short grids of round
// numbers, so flows often finish at the very instant of a later group and
// several finish together — the cases where reaping order could differ.
func randomSchedule(rng *rand.Rand) schedule {
	pick := func(xs ...float64) float64 { return xs[rng.Intn(len(xs))] }
	var sc schedule
	for n := 6 + rng.Intn(15); n > 0; n-- {
		sc.caps = append(sc.caps, pick(25, 50, 100, 100, 200, 400))
	}
	started := 0
	at := 0.0
	for n := 4 + rng.Intn(12); n > 0; n-- {
		at += pick(0, 0.25, 0.5, 1, 1, 2, 4)
		in := instant{at: at}
		for k := 1 + rng.Intn(6); k > 0; k-- {
			o := op{nest: rng.Intn(4) == 0}
			switch r := rng.Intn(10); {
			case r < 7 || started == 0:
				o.kind = opStart
				o.name = string(rune('a' + rng.Intn(3))) // few names: the completion order falls to size and id
				o.bytes = pick(0, 1e-7, 50, 100, 100, 200, 400, 800)
				o.weight = pick(1, 1, 2, 3)
				o.links = rng.Perm(len(sc.caps))[:1+rng.Intn(3)]
				started++
			case r < 9:
				o.kind = opCancel
				o.flow = rng.Intn(started)
			default:
				o.kind = opSetCap
				o.link = rng.Intn(len(sc.caps))
				o.cap = pick(0, 25, 50, 100, 200, 400)
			}
			in.ops = append(in.ops, o)
		}
		sc.instants = append(sc.instants, in)
	}
	return sc
}

// sameOutcome compares two outcomes with ==, never a tolerance.
func sameOutcome(t *testing.T, label string, held, bare outcome) {
	t.Helper()
	for k := range bare.rates {
		if !slices.Equal(held.rates[k], bare.rates[k]) {
			t.Fatalf("%s: rates after instant %d: held %v, bare %v", label, k, held.rates[k], bare.rates[k])
		}
	}
	if !slices.Equal(held.finish, bare.finish) {
		t.Fatalf("%s: finish times: held %v, bare %v", label, held.finish, bare.finish)
	}
	if !slices.Equal(held.order, bare.order) {
		t.Fatalf("%s: onDone order: held %v, bare %v", label, held.order, bare.order)
	}
}

func TestHoldMatchesUnbatched(t *testing.T) {
	saved, finished := 0, 0
	for seed := int64(0); seed < 250; seed++ {
		sc := randomSchedule(rand.New(rand.NewSource(seed)))
		held, bare := play(sc, true), play(sc, false)
		sameOutcome(t, fmt.Sprintf("seed %d", seed), held, bare)
		if held.fills > bare.fills {
			t.Fatalf("seed %d: %d fills held, %d bare", seed, held.fills, bare.fills)
		}
		saved += bare.fills - held.fills
		finished += len(bare.order)
	}
	if saved == 0 || finished == 0 {
		t.Fatalf("schedules saved %d fills and finished %d flows: the comparison exercised nothing", saved, finished)
	}
}

// TestHoldForeignCompletionAtHeldStart is the swap-delete order case the
// per-Start reap exists for: flow 0, alone on link 0, is due at t=10, the very
// instant a held group starts two more flows. The first Start must complete
// it — moving the flow just started into slot 0 — before the second Start
// appends, or link 1's weights (tenths, whose sum depends on the order) add
// up in another order and the rates differ in the last bit.
func TestHoldForeignCompletionAtHeldStart(t *testing.T) {
	start := func(name string, bytes, weight float64, link int) op {
		return op{kind: opStart, name: name, bytes: bytes, weight: weight, links: []int{link}}
	}
	sc := schedule{
		caps: []float64{50, 100},
		instants: []instant{
			{at: 0, ops: []op{start("due", 500, 1, 0), start("long", 4000, 0.1, 1), start("other", 3000, 0.2, 1)}},
			{at: 10, ops: []op{start("x", 700, 0.3, 1), start("y", 900, 0.6, 1)}},
		},
	}
	held, bare := play(sc, true), play(sc, false)
	sameOutcome(t, "foreign completion", held, bare)
	if bare.finish[0] != 10 || bare.order[0] != 0 {
		t.Fatalf("flow 0 finished at %v (order %v), want exactly the held instant t=10", bare.finish[0], bare.order)
	}
	if held.fills != bare.fills-3 { // three Starts at t=0 and two at t=10 each filled once
		t.Fatalf("fills: held %d, bare %d", held.fills, bare.fills)
	}
}

func TestHoldTableCases(t *testing.T) {
	newFabric := func() (*sim.Engine, *Fabric, *Link, *int) {
		eng := sim.NewEngine()
		fb := New(eng)
		fills := new(int)
		countFills(eng, fills)
		return eng, fb, fb.NewLink("l", 100), fills
	}

	t.Run("nested hold fills at the outermost release", func(t *testing.T) {
		eng, fb, l, fills := newFabric()
		fb.Hold()
		fb.Hold()
		f := fb.Start("f", 1000, 1, []*Link{l}, nil)
		fb.Release()
		if *fills != 0 {
			t.Fatalf("%d fills after the inner release", *fills)
		}
		g := fb.Start("g", 1000, 1, []*Link{l}, nil)
		fb.Release()
		if *fills != 1 || f.Rate() != 50 || g.Rate() != 50 {
			t.Fatalf("fills=%d rates=%v/%v, want 1 fill and 50/50", *fills, f.Rate(), g.Rate())
		}
		if eng.Run() != 20 {
			t.Fatalf("finished at %v, want 20", eng.Now())
		}
	})

	t.Run("eps-sized flow completes in the hold's reap", func(t *testing.T) {
		eng, fb, l, fills := newFabric()
		ran := false
		fb.Hold()
		f := fb.Start("tiny", 1e-7, 1, []*Link{l}, func() { ran = true })
		if !f.Done() || eng.Pending() != 1 {
			t.Fatalf("done=%v pending=%d before the release, want the flow done and its callback posted", f.Done(), eng.Pending())
		}
		fb.Release()
		eng.Run()
		if !ran || eng.Now() != 0 || *fills != 1 {
			t.Fatalf("ran=%v now=%v fills=%d", ran, eng.Now(), *fills)
		}
	})

	t.Run("release with nothing changed does not fill", func(t *testing.T) {
		_, fb, l, fills := newFabric()
		f := fb.Start("f", 1000, 1, []*Link{l}, nil)
		fb.Hold()
		fb.Release()
		if *fills != 1 || f.Rate() != 100 {
			t.Fatalf("fills=%d rate=%v, want the Start's one fill and its rate", *fills, f.Rate())
		}
	})

	t.Run("reset inside a hold clears it", func(t *testing.T) {
		eng, fb, l, fills := newFabric()
		fb.Hold()
		fb.Start("f", 1000, 1, []*Link{l}, nil)
		eng.Reset()
		fb.Reset()
		g := fb.Start("g", 1000, 1, []*Link{l}, nil)
		if *fills != 1 || g.Rate() != 100 {
			t.Fatalf("fills=%d rate=%v after Reset, want an immediate fill", *fills, g.Rate())
		}
		defer func() {
			if recover() == nil {
				t.Fatal("Release after the Reset did not panic")
			}
		}()
		fb.Release()
	})
}
