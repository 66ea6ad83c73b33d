package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
)

// The synthetic incident the replay-whatif workload re-arbitrates: 64
// applications spread evenly over 4 storage targets, each running
// closed-loop I/O phases whose arrivals, sizes and core counts come from
// the seed. synthPhasesPerApp sizes the trace so that one op (read the
// bytes, compare five policies) takes about 50 ms on a 2-vCPU Xeon.
const (
	synthTargets      = 4
	synthApps         = 64
	synthPhasesPerApp = 20
	synthFSMiBps      = 4096
	synthNICMiBps     = 3
)

// synthTrace is an encoded daemon-side arrival trace (request events only:
// what-if replay ignores recorded outcomes) and what went into it.
type synthTrace struct {
	encoded []byte
	events  int
	phases  int
}

// synthCores is every target's multiset of application sizes. The seed
// deals them out; it does not change the multiset, because the model-based
// policies' cost depends on it and a workload must cost the same whatever
// its seed. The sizes sit a factor of four apart on purpose: the delay
// policy re-arbitrates every (holder's remaining time - half the newcomer's
// solo time), so two applications within a few percent of 2:1 make that
// interval arbitrarily small — with power-of-two sizes one seed replayed in
// 16k arbitrations and the next in 105k. That sensitivity is the program's
// and worth its own issue; a regression gate cannot stand on it.
var synthCores = [synthApps / synthTargets]int32{
	64, 64, 64, 64, 256, 256, 256, 256, 1024, 1024, 1024, 1024, 4096, 4096, 4096, 4096}

// synthesize builds the trace. Arrivals are generated by serving each
// target's applications first come first served — an application's next
// phase arrives a think time after its previous one ended — so the request
// instants are ones a live fcfs daemon could have recorded, and an fcfs
// replay grants every phase. The seed draws think times and phase sizes
// (uniform within a factor of their means, for the same reason the core
// multiset is fixed) and deals the core counts.
func synthesize(seed int64) (*synthTrace, error) {
	rng := rand.New(rand.NewSource(seed))
	const perTarget = synthApps / synthTargets
	const meanBytes = 256 << 20
	service := func(b float64) float64 { return b / (synthFSMiBps << 20) }
	// Eight service times of thinking between phases keeps about half of a
	// target's sixteen applications queued: a convoy, as in the incident an
	// operator would replay.
	think := func() float64 { return 8 * service(meanBytes) * (0.9 + 0.2*rng.Float64()) }

	var evs []trace.Event
	for t := 0; t < synthTargets; t++ {
		target := targetName(t)
		next := make([]float64, perTarget)
		deal := rng.Perm(perTarget)
		for a := range next {
			sid := uint32(t*perTarget + a + 1)
			evs = append(evs, trace.Event{Type: trace.EvRegister, SID: sid, Target: target,
				App: fmt.Sprintf("app-%02d", sid), Cores: synthCores[deal[a]]})
			next[a] = think()
		}
		free := 0.0
		for p := 0; p < perTarget*synthPhasesPerApp; p++ {
			a := 0
			for i := range next {
				if next[i] < next[a] {
					a = i
				}
			}
			sid := uint32(t*perTarget + a + 1)
			size := math.Round(meanBytes * (0.95 + 0.1*rng.Float64()))
			arrive := next[a]
			end := math.Max(arrive, free) + service(size)
			free = end
			next[a] = end + think()
			info := map[string]string{core.KeyBytesTotal: strconv.FormatFloat(size, 'f', 0, 64)}
			evs = append(evs,
				trace.Event{Type: trace.EvPrepare, Time: arrive, SID: sid, Target: target, Info: info},
				trace.Event{Type: trace.EvInform, Time: arrive, SID: sid, Target: target},
				trace.Event{Type: trace.EvWait, Time: arrive, SID: sid, Target: target},
				trace.Event{Type: trace.EvRelease, Time: end, SID: sid, Target: target, Bytes: size},
				trace.Event{Type: trace.EvEnd, Time: end, SID: sid, Target: target},
				trace.Event{Type: trace.EvComplete, Time: end, SID: sid, Target: target})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })

	var buf bytes.Buffer
	hdr := trace.Header{Source: trace.SourceDaemon, Policy: "fcfs",
		FSMiBps: synthFSMiBps, ProcNICMiBps: synthNICMiBps}
	// The writer drops on overflow rather than block; a buffer as large as
	// the whole trace cannot overflow.
	w, err := trace.NewWriter(&buf, hdr, len(evs))
	if err != nil {
		return nil, err
	}
	for _, ev := range evs {
		w.Record(ev)
	}
	if err := w.Close(); err != nil {
		return nil, err
	}
	if w.Dropped() != 0 {
		return nil, fmt.Errorf("synthesize: writer dropped %d events", w.Dropped())
	}
	return &synthTrace{encoded: buf.Bytes(), events: len(evs), phases: synthApps * synthPhasesPerApp}, nil
}

// renderComparison prints a what-if study the way calciom-replay's table
// does, one row per policy; identical studies render identical bytes.
func renderComparison(buf *bytes.Buffer, c *replay.Comparison) {
	buf.Reset()
	for i := range c.Outcomes {
		o := &c.Outcomes[i]
		mark := " "
		if i == c.Best {
			mark = "*"
		}
		fmt.Fprintf(buf, "%-21s%s %7d %5d %5d %9.3fs %9.4fs %9.4fs %9.3fs %9.3fs %9.3fs %8.3f %10.1f\n",
			o.Policy, mark, o.GrantsServed, o.Unserved, o.Aborted, o.TotalWaitS,
			o.WaitPercentile(99), o.MaxWait(), o.ConvoyWaitS, o.ProtocolWaitS,
			o.OverlapS, o.SumInterference, o.CPUSecondsWasted)
	}
}

// replayWhatIf is the offline workload: what an operator runs after an
// incident. One closed-loop client; no sockets, no daemon.
type replayWhatIf struct {
	o  options
	tr *synthTrace
	// want is the warm op's rendering; every timed op must reproduce it.
	want       []byte
	got        bytes.Buffer
	fcfsGrants uint64
	differing  int
}

func (r *replayWhatIf) clients() int { return 1 }
func (r *replayWhatIf) teardown()    {}

func (r *replayWhatIf) setup() error {
	tr, err := synthesize(r.o.seed)
	if err != nil {
		return err
	}
	r.tr, r.differing = tr, 0
	if err := r.op(nil, 0, time.Now()); err != nil {
		return err
	}
	r.want = bytes.Clone(r.got.Bytes())
	return nil
}

// op reads the encoded trace and compares the five standard policies on it.
func (r *replayWhatIf) op(rec *recorder, id uint32, base time.Time) error {
	now := func() int64 { return int64(time.Since(base)) }
	root := rec.begin(spOp, -1, id, now())
	defer func() { rec.end(root, now()) }()

	sp := rec.begin(spTraceRead, root, id, now())
	tr, err := trace.Read(bytes.NewReader(r.tr.encoded))
	rec.end(sp, now())
	if err != nil {
		return err
	}
	sp = rec.begin(spCompare, root, id, now())
	c, err := replay.Compare(tr, replay.StandardPolicies(tr.Header, -1))
	rec.end(sp, now())
	if err != nil {
		return err
	}
	sp = rec.begin(spRender, root, id, now())
	renderComparison(&r.got, &c)
	rec.end(sp, now())

	r.fcfsGrants = c.Outcomes[0].GrantsServed
	if r.want != nil && !bytes.Equal(r.got.Bytes(), r.want) {
		r.differing++
	}
	return nil
}

func (r *replayWhatIf) run(window time.Duration, n int, traced bool) region {
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	return closedLoop(window, n, rec, func(id uint32, base time.Time) error { return r.op(rec, id, base) })
}

// closedLoop is the single-client timed region of the offline workloads:
// op after op until n windows have passed, one latency sample each.
func closedLoop(window time.Duration, n int, rec *recorder, op func(id uint32, base time.Time) error) region {
	var before, after runtime.MemStats
	var r region
	log := newSamples(1024, window)
	d := int64(window) * int64(n)
	runtime.ReadMemStats(&before)
	base := time.Now()
	for id := uint32(0); ; id++ {
		t0 := int64(time.Since(base))
		err := op(id, base)
		t1 := int64(time.Since(base))
		if err != nil {
			fmt.Fprintln(os.Stderr, "op failed:", err)
			r.failed++
			break
		}
		log.add(t0, t1)
		if t1 >= d {
			break
		}
	}
	runtime.ReadMemStats(&after)
	r.ops, r.mallocs = len(log.lat), after.Mallocs-before.Mallocs
	r.windows = cutWindows([]*samples{log}, n)
	if rec != nil {
		r.recs = []*recorder{rec}
	}
	return r
}

func (r *replayWhatIf) finish(all *region, spans *spanStats, m metricSet) []check {
	if r.o.traced {
		m.set("replay.compare_ms", spans.p50us(spCompare)/1e3)
		m.set("replay.op_p99_us", us(percentile(spans.durs[spOp], 99)))
	}
	return []check{
		gate("Comparison renders byte-identical on every op", r.differing == 0, "%d ops differed", r.differing),
		gate("fcfs grants == phases generated", r.fcfsGrants == uint64(r.tr.phases),
			"%d grants, %d phases", r.fcfsGrants, r.tr.phases),
	}
}
