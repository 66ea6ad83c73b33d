// Package replaytest synthesizes coordination traces for the tests and
// benchmarks of what-if replay: a fixed arrival pattern that is a pure
// function of its arguments, so a golden rendered from it at one commit
// still means something at the next.
package replaytest

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/trace"
)

// The recording daemon's performance model, written into the header so the
// delay and dynamic policies join replay.StandardPolicies.
const (
	FSMiBps      = 4096
	ProcNICMiBps = 3
)

// coreSizes sit a factor of four apart: the delay policy re-arbitrates every
// (holder's remaining time - half the newcomer's solo time), which two
// applications near 2:1 make arbitrarily small.
var coreSizes = [...]int32{64, 256, 1024, 4096}

// Trace returns a daemon-side arrival trace (request events only, which is
// all a what-if replay reads) of apps applications spread evenly over
// targets storage targets, each running phases closed-loop I/O phases of
// two access steps. Arrivals are the ones a live fcfs daemon would have
// recorded: a target serves its applications first come first served and an
// application's next phase arrives a think time after its previous one
// ended. Think times and phase sizes come from a fixed generator, not
// math/rand, so no Go release can move them.
func Trace(apps, targets, phases int) *trace.Trace {
	rng := uint64(0x9e3779b97f4a7c15)
	unit := func() float64 { // xorshift64*, top 53 bits
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return float64((rng*0x2545f4914f6cdd1d)>>11) / (1 << 53)
	}
	const meanBytes = 256 << 20
	service := func(b float64) float64 { return b / (FSMiBps << 20) }
	perTarget := apps / targets
	// Thinking for half a round of everybody's service keeps about half of a
	// target's applications queued: a convoy, as in the incident an operator
	// would replay.
	think := func() float64 { return float64(perTarget) / 2 * service(meanBytes) * (0.5 + unit()) }

	var evs []trace.Event
	for t := 0; t < targets; t++ {
		target := fmt.Sprintf("ost-%d", t)
		next := make([]float64, perTarget)
		for a := range next {
			sid := uint32(t*perTarget + a + 1)
			evs = append(evs, trace.Event{Type: trace.EvRegister, SID: sid, Target: target,
				App: fmt.Sprintf("app-%02d", sid), Cores: coreSizes[(a+t)%len(coreSizes)]})
			next[a] = think()
		}
		free := 0.0
		for p := 0; p < perTarget*phases; p++ {
			a := 0
			for i := range next {
				if next[i] < next[a] {
					a = i
				}
			}
			sid := uint32(t*perTarget + a + 1)
			size := math.Round(meanBytes * (0.5 + unit()))
			arrive := next[a]
			start := math.Max(arrive, free)
			mid, end := start+service(size)/2, start+service(size)
			free = end
			next[a] = end + think()
			info := map[string]string{core.KeyBytesTotal: strconv.FormatFloat(size, 'f', 0, 64)}
			ev := func(typ trace.Type, at, bytes float64) {
				evs = append(evs, trace.Event{Type: typ, Time: at, SID: sid, Target: target, Bytes: bytes})
			}
			evs = append(evs, trace.Event{Type: trace.EvPrepare, Time: arrive, SID: sid, Target: target, Info: info})
			ev(trace.EvInform, arrive, 0)
			ev(trace.EvWait, arrive, 0)
			ev(trace.EvRelease, mid, math.Round(size/2))
			ev(trace.EvInform, mid, 0)
			ev(trace.EvWait, mid, 0)
			ev(trace.EvRelease, end, size)
			ev(trace.EvEnd, end, 0)
			ev(trace.EvComplete, end, 0)
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	return &trace.Trace{
		Header: trace.Header{Source: trace.SourceDaemon, Policy: "fcfs", FSMiBps: FSMiBps, ProcNICMiBps: ProcNICMiBps},
		Events: evs,
	}
}
