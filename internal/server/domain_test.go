package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wire"
)

// The hosts of core.Domain each run one verb schedule, and everything they
// can observe must agree: the Domain driven directly (the reference), a
// real shard through Server.handle, a replay of that shard's trace, and —
// on schedules the simulator can express — a zero-latency simulator Layer.
// Times are in units where a solo phase lasts minutes to hours, so no
// recheck the daemon arms on the wall clock comes due during a run: the
// harness fires each one itself, at its virtual deadline.

// Verbs of a domain schedule: a byte string of (verb, arg) pairs, arg
// picking the application and parameterizing the verb.
const (
	vPrepare = iota
	vComplete
	vInform
	vProgress
	vCheck
	vWait
	vRelease
	vEnd
	vTick
	vResume // the session resumes on a new connection
	vLeave  // the session is dropped; its next verb registers it afresh
	vCount
)

var hostApps = []string{"m", "c", "z", "a"}

var hostModel = &core.PerfModel{FSBandwidth: 1e3, ProcNIC: 10}

// hostPolicies is every shipped policy, dynamic under both metrics, with
// rechecks stretched to the schedule's time scale.
var hostPolicies = []core.Policy{
	core.FCFSPolicy{},
	core.InterruptPolicy{},
	core.InterferePolicy{},
	core.DelayPolicy{Overlap: 0.5, Model: hostModel},
	core.DynamicPolicy{Metric: core.CPUSecondsWasted{}, Model: hostModel, AllowInterfere: true},
	core.DynamicPolicy{Metric: core.SumInterferenceFactors{Model: hostModel}, Model: hostModel},
	core.FairSharePolicy{Quantum: 2000},
}

// op is one schedule step as every host applies it.
type op struct {
	verb, app int
	arg       byte
}

// domainRun drives the reference Domain and a real shard in lock step,
// comparing their replies after every step, and records the steps as
// applied for the Layer.
type domainRun struct {
	t     testing.TB
	pol   core.Policy
	layer bool // normalize the schedule to what the simulator can express
	now   float64
	clock atomic.Uint64 // the server's clock: now's bits

	// The reference: the Domain and what a minimal host keeps around it,
	// its decisions included.
	dom     *core.Domain
	log     []core.DecisionRecord
	app     []*core.AppState // the current session's, nil until it attaches
	sid     []uint32
	waitSeq []uint64
	depth   []int // Prepares not yet Completed
	ledgers map[uint32]*core.AppState
	replies [][]string
	served  []string
	waits   []float64 // every served Wait's duration, 0 when immediate
	flips   []replay.Flip
	nextSID uint32
	cov     hostCoverage

	// The shard under test.
	srv  *Server
	buf  bytes.Buffer
	tw   *trace.Writer
	sess []*session // nil after a leave, until the next verb registers
	inc  []uint64
	seq  []uint64

	ops []op // the schedule as applied, for the Layer
}

// hostCoverage counts the hazards a schedule reached.
type hostCoverage struct {
	decisions, served, rechecks, violations, cancelled, busyLeaves, resumes, verified int
}

func (c *hostCoverage) add(o hostCoverage) {
	c.decisions += o.decisions
	c.served += o.served
	c.rechecks += o.rechecks
	c.violations += o.violations
	c.cancelled += o.cancelled
	c.busyLeaves += o.busyLeaves
	c.resumes += o.resumes
	c.verified += o.verified
}

func newDomainRun(t testing.TB, pol core.Policy, layer bool) *domainRun {
	n := len(hostApps)
	h := &domainRun{t: t, pol: pol, layer: layer, dom: core.NewDomain(core.NewArbiter(pol)),
		app: make([]*core.AppState, n), sid: make([]uint32, n), waitSeq: make([]uint64, n),
		depth: make([]int, n), ledgers: map[uint32]*core.AppState{}, replies: make([][]string, n),
		sess: make([]*session, n), inc: make([]uint64, n), seq: make([]uint64, n)}
	var err error
	hdr := trace.Header{Source: trace.SourceDaemon, Policy: pol.Name(),
		FSMiBps: hostModel.FSBandwidth / (1 << 20), ProcNICMiBps: hostModel.ProcNIC / (1 << 20)}
	if h.tw, err = trace.NewWriter(&h.buf, hdr, 0); err != nil {
		t.Fatal(err)
	}
	h.srv, err = New(Config{Policy: pol, Trace: h.tw,
		Clock: func() float64 { return math.Float64frombits(h.clock.Load()) }})
	if err != nil {
		t.Fatal(err)
	}
	h.setNow(0)
	return h
}

func (h *domainRun) setNow(t float64) {
	h.now = t
	h.clock.Store(math.Float64bits(t))
}

func (h *domainRun) shard() *shard {
	sh, err := h.srv.shardFor("")
	if err != nil {
		h.t.Fatal(err)
	}
	return sh
}

// run applies a schedule: every application checks in first, in order, so
// registration order is the same on every host, and app 0 checks in last,
// so the trace ends at the final instant.
func (h *domainRun) run(schedule []byte) {
	for i := range hostApps {
		h.step(op{verb: vCheck, app: i})
	}
	for i := 0; i+1 < len(schedule); i += 2 {
		h.step(op{verb: int(schedule[i]) % vCount, app: int(schedule[i+1]) % len(hostApps), arg: schedule[i+1]})
	}
	h.step(op{verb: vCheck})
}

// normalize turns a step the simulator cannot express into the nearest one
// it can, on every host alike: a Layer panics on a protocol violation and
// has no session to drop or resume.
func (h *domainRun) normalize(o op) (op, bool) {
	a := h.app[o.app]
	switch o.verb {
	case vWait:
		return o, a.State() != core.Idle && !a.Parked()
	case vComplete:
		return o, h.depth[o.app] > 0
	case vRelease:
		if a.State() != core.Active {
			o.verb = vProgress // what a refused Release still does
		}
	case vEnd:
		return o, !a.Parked()
	case vResume, vLeave:
		return o, false
	}
	return o, true
}

func (h *domainRun) step(o op) {
	if h.layer {
		var ok bool
		if o, ok = h.normalize(o); !ok {
			return
		}
	}
	h.ops = append(h.ops, o)
	i := o.app
	switch o.verb {
	case vTick:
		h.tick(1000 * float64(1+o.arg%4))
		return
	case vLeave:
		if h.sess[i] != nil {
			h.srv.ctl.mu.Lock()
			h.srv.drop(h.sess[i], "test")
			h.srv.ctl.mu.Unlock()
			h.sess[i] = nil
			if a := h.app[i]; a != nil {
				h.settleLeave(h.dom.Leave(h.now, a))
				h.app[i] = nil
			}
			h.compare()
		}
		return
	case vResume:
		if h.sess[i] != nil {
			h.register(i, h.inc[i]+1)
			if a := h.app[i]; a != nil {
				e := h.dom.Leave(h.now, a)
				h.cov.resumes++
				h.join(i, a)
				h.settleLeave(e)
				h.depth[i] = 0
			}
			h.compare()
		}
		return
	}
	if h.sess[i] == nil {
		h.register(i, 1)
		h.nextSID++
		h.sid[i], h.app[i], h.depth[i] = h.nextSID, nil, 0
	}
	h.seq[i]++
	req := wire.Request{Seq: h.seq[i]}
	bytesDone := 1e4 * float64(o.arg)
	switch o.verb {
	case vPrepare:
		req.Type, req.Info = wire.TypePrepare, core.Info{}
		core.Info(req.Info).SetFloat(core.KeyBytesTotal, 1e5*float64(1+o.arg%13))
	case vComplete:
		req.Type = wire.TypeComplete
	case vInform:
		req.Type, req.BytesDone = wire.TypeInform, bytesDone
	case vProgress:
		req.Type, req.BytesDone = wire.TypeProgress, bytesDone
	case vCheck:
		req.Type = wire.TypeCheck
	case vWait:
		req.Type = wire.TypeWait
	case vRelease:
		req.Type, req.BytesDone = wire.TypeRelease, bytesDone
	case vEnd:
		req.Type = wire.TypeEnd
	}
	h.reference(i, req)
	h.srv.handle(h.sess[i], req)
	h.compare()
}

// register gives app i a session on a new connection: a fresh one, or the
// resume of its current one when inc is higher.
func (h *domainRun) register(i int, inc uint64) {
	s := testSession(1 << 12)
	h.srv.handle(s, wire.Request{Seq: 1, Type: wire.TypeRegister, App: hostApps[i], Cores: 16, Incarnation: inc})
	if r := queued(s); len(r) != 1 || !r[0].OK {
		h.t.Fatalf("register %s incarnation %d: %+v", hostApps[i], inc, r)
	}
	h.sess[i], h.inc[i], h.seq[i] = s, inc, 1
}

func (h *domainRun) join(i int, a *core.AppState) {
	a.Data = i
	if err := h.dom.Join(a, hostApps[i], 16); err != nil {
		h.t.Fatal(err)
	}
}

// reference applies one request to the Domain as a host that answers it
// like the daemon does.
func (h *domainRun) reference(i int, req wire.Request) {
	a := h.app[i]
	if a == nil {
		a = new(core.AppState)
		h.app[i], h.ledgers[h.sid[i]] = a, a
		h.join(i, a)
	}
	d, now := h.dom, h.now
	var e core.Effect
	switch req.Type {
	case wire.TypePrepare:
		a.Prepare(core.ParseInfo(req.Info))
		h.depth[i]++
	case wire.TypeComplete:
		if e.Violation = a.Complete(); e.Violation.Err() == nil {
			h.depth[i]--
		}
	case wire.TypeInform:
		e = d.Inform(now, a, req.BytesDone)
	case wire.TypeProgress:
		a.Progress(req.BytesDone)
	case wire.TypeWait:
		if e = d.Wait(now, a, false); e.Violation.Err() == nil {
			if e.Served {
				h.waits = append(h.waits, 0)
				h.serve(i, req.Seq)
			} else {
				h.waitSeq[i] = req.Seq
			}
			return
		}
	case wire.TypeRelease:
		e = d.Release(a, req.BytesDone)
	case wire.TypeEnd:
		if e = d.End(now, a); e.Cancelled {
			h.cov.cancelled++
			h.reply(i, wire.Response{Seq: h.waitSeq[i], Err: "wait cancelled: phase ended", Code: wire.CodeProtocol})
		}
	}
	if e.Arbitrate {
		h.arbitrate()
	}
	r := wire.Response{Seq: req.Seq, OK: e.Violation.Err() == nil, Authorized: a.Authorized()}
	if err := e.Violation.Err(); err != nil {
		r.Err, r.Code = err.Error(), wire.CodeProtocol
		h.cov.violations++
	}
	h.reply(i, r)
}

func (h *domainRun) reply(i int, r wire.Response) {
	if r.Type == "" {
		r.Type = wire.TypeResp
	}
	h.replies[i] = append(h.replies[i], renderResponse(r))
}

func (h *domainRun) serve(i int, seq uint64) {
	h.served = append(h.served, fmt.Sprintf("%s t=%v", hostApps[i], h.now))
	h.cov.served++
	h.reply(i, wire.Response{Seq: seq, OK: true, Authorized: true})
}

func (h *domainRun) arbitrate() {
	dec := h.dom.Arbitrate(h.now)
	if dec.Acted {
		var allowed []string
		for _, a := range h.dom.Arbiter().Apps() {
			if a.Authorized() {
				allowed = append(allowed, a.Name())
			}
		}
		slices.Sort(allowed)
		h.log = append(h.log, core.DecisionRecord{Time: h.now, Policy: h.pol.Name(), Allowed: allowed, Reason: dec.Reason})
	}
	for _, a := range dec.Granted {
		i := a.Data.(int)
		h.flips = append(h.flips, replay.Flip{Time: h.now, SID: h.sid[i], Grant: true})
		if a.Parked() {
			w, _ := h.dom.Serve(h.now, a)
			h.waits = append(h.waits, w)
			h.serve(i, h.waitSeq[i])
		} else {
			h.reply(i, wire.Response{Type: wire.TypeGrant, Authorized: true})
		}
	}
	for _, a := range dec.Revoked {
		i := a.Data.(int)
		h.flips = append(h.flips, replay.Flip{Time: h.now, SID: h.sid[i]})
		h.reply(i, wire.Response{Type: wire.TypeRevoke})
	}
}

// settleLeave re-arbitrates after a session left mid-phase.
func (h *domainRun) settleLeave(e core.Effect) {
	if e.Arbitrate {
		h.cov.busyLeaves++
		h.arbitrate()
	}
}

// tick advances the clock by dt, firing on both hosts every recheck that
// comes due, at its deadline.
func (h *domainRun) tick(dt float64) {
	wake := h.now + dt
	sh := h.shard()
	for n := 0; h.dom.RecheckAt() <= wake; n++ {
		if n > 1000 {
			h.t.Fatalf("%s: rechecks do not move past t=%v", h.pol.Name(), h.dom.RecheckAt())
		}
		sh.mu.Lock()
		got := sh.dom.RecheckAt()
		sh.mu.Unlock()
		if got != h.dom.RecheckAt() {
			h.t.Fatalf("%s: the shard's recheck is due at %v, the Domain's at %v", h.pol.Name(), got, h.dom.RecheckAt())
		}
		h.setNow(h.dom.RecheckAt())
		h.arbitrate()
		sh.fireRecheck()
		h.cov.rechecks++
		h.compare()
	}
	h.setNow(wake)
}

func renderResponse(r wire.Response) string {
	return fmt.Sprintf("seq=%d %s ok=%v auth=%v err=%q code=%s", r.Seq, r.Type, r.OK, r.Authorized, r.Err, r.Code)
}

// compare checks that the shard answered this step as the reference did,
// and that stats print the reference's latest decision, machine-wide and
// for the target.
func (h *domainRun) compare() {
	for i, s := range h.sess {
		var got []string
		if s != nil {
			for _, r := range queued(s) {
				if r.Target != "" {
					h.t.Fatalf("response for target %q", r.Target)
				}
				got = append(got, renderResponse(r))
			}
		}
		if want := h.replies[i]; !slices.Equal(got, want) {
			h.t.Fatalf("%s t=%v, step %d: the shard answered %s\n%s\nthe Domain\n%s",
				h.pol.Name(), h.now, len(h.ops), hostApps[i], strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		h.replies[i] = h.replies[i][:0]
	}
	want := ""
	if n := len(h.log); n > 0 {
		d := h.log[n-1]
		want = fmt.Sprintf("t=%.3f allowed=%v %s", d.Time, d.Allowed, d.Reason)
	}
	st := h.srv.Stats()
	target := ""
	for _, ts := range st.Targets {
		target = ts.LastDecision
	}
	if st.LastDecision != want || target != want {
		h.t.Fatalf("%s t=%v, step %d: stats read last decision %q, target %q; the Domain decided %q",
			h.pol.Name(), h.now, len(h.ops), st.LastDecision, target, want)
	}
}

func renderLog(log []core.DecisionRecord) []string {
	out := make([]string, len(log))
	for i, d := range log {
		out[i] = fmt.Sprintf("t=%v %s allowed=%v %s", d.Time, d.Policy, d.Allowed, d.Reason)
	}
	return out
}

// finish compares what is left to compare once the schedule has run: the
// shard's arbitration count and totals, and a replay of its trace.
func (h *domainRun) finish() {
	t := h.t
	sh := h.shard()
	sh.mu.Lock()
	arbs := sh.dom.Arbitrations()
	sh.mu.Unlock()
	if arbs != h.dom.Arbitrations() {
		t.Fatalf("%s: the shard arbitrated %d times, the Domain %d", h.pol.Name(), arbs, h.dom.Arbitrations())
	}
	h.cov.decisions = len(h.log)
	// The live stats: every session still bound, and totals over every
	// session there was.
	st := h.srv.Stats()
	var tot core.Ledger
	for _, a := range h.ledgers {
		tot.Add(a.Ledger())
	}
	if st.GrantsServed != tot.Grants || st.WaitsImmediate != tot.WaitsImmediate || st.WaitsDeferred != tot.WaitsDeferred ||
		st.ConvoyWaitS != tot.ConvoyWaitS || st.ProtocolWaitS != tot.ProtocolWaitS {
		t.Fatalf("%s: the shard's totals %+v, the Domain's %+v", h.pol.Name(), st, tot)
	}
	for _, as := range st.Apps {
		i := slices.Index(hostApps, as.Name)
		a, l := h.app[i], h.app[i].Ledger()
		if as.Phases != l.Phases || as.Grants != l.Grants || as.WaitsImmediate != l.WaitsImmediate || as.WaitsDeferred != l.WaitsDeferred ||
			as.WaitTimeS != l.WaitS || as.ConvoyWaitS != l.ConvoyWaitS || as.ProtocolWaitS != l.ProtocolWaitS ||
			as.IOTimeS != a.IOTimeAt(h.now) || as.Authorized != a.Authorized() || as.State != a.State().String() {
			t.Fatalf("%s: the shard accounted %s as %+v, the Domain %+v", h.pol.Name(), as.Name, as, l)
		}
	}
	if err := h.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.tw.Close(); err != nil || h.tw.Dropped() != 0 {
		t.Fatalf("trace: %v, %d dropped", err, h.tw.Dropped())
	}
	tr, err := trace.Read(bytes.NewReader(h.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The recorded flips are the reference's.
	var recorded []replay.Flip
	for _, ev := range tr.Events {
		if ev.Type == trace.EvGrant || ev.Type == trace.EvRevoke {
			recorded = append(recorded, replay.Flip{Time: ev.Time, SID: ev.SID, Grant: ev.Type == trace.EvGrant})
		}
	}
	if !slices.Equal(recorded, h.flips) {
		t.Fatalf("%s: the trace recorded flips\n%v\nthe Domain made\n%v", h.pol.Name(), recorded, h.flips)
	}
	res, err := replay.Under(tr, h.pol)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Flips, h.flips) {
		t.Fatalf("%s: replay flipped\n%v\nthe Domain\n%v", h.pol.Name(), res.Flips, h.flips)
	}
	if res.Arbitrations != h.dom.Arbitrations() {
		t.Fatalf("%s: replay arbitrated %d times, the Domain %d", h.pol.Name(), res.Arbitrations, h.dom.Arbitrations())
	}
	// Replay censors the Waits still parked at its last instant, which is
	// the reference's now.
	for _, r := range res.Apps {
		a := h.ledgers[r.SID]
		if a == nil {
			t.Fatalf("replay has sid %d, the Domain none", r.SID)
		}
		if w, ok := a.Censor(h.now); ok {
			h.waits = append(h.waits, w)
		}
		l := a.Ledger()
		if r.Name != a.Name() || r.Phases != l.Phases || r.Grants != l.Grants || r.WaitsImmediate != l.WaitsImmediate ||
			r.WaitsDeferred != l.WaitsDeferred || r.WaitS != l.WaitS || r.ConvoyWaitS != l.ConvoyWaitS ||
			r.ProtocolWaitS != l.ProtocolWaitS || r.IOTimeS != a.IOTimeAt(h.now) {
			t.Fatalf("%s: replay accounted sid %d as %+v, the Domain %+v (I/O %v)", h.pol.Name(), r.SID, r, l, a.IOTimeAt(h.now))
		}
	}
	if len(res.Apps) != len(h.ledgers) {
		t.Fatalf("%s: replay has %d sessions, the Domain %d", h.pol.Name(), len(res.Apps), len(h.ledgers))
	}
	slices.Sort(h.waits)
	if !slices.Equal(res.Waits, h.waits) {
		t.Fatalf("%s: replay waited\n%v\nthe Domain\n%v", h.pol.Name(), res.Waits, h.waits)
	}
	// A policy its name rebuilds is the recording policy replay rebuilds from
	// the header, so the recorded sequence must verify.
	if p, err := core.ParsePolicy(h.pol.Name(), hostModel); err == nil && reflect.DeepEqual(p, h.pol) {
		v, err := replay.Verify(tr)
		if err != nil || !v.Match {
			t.Fatalf("%s: verify: %v %s", h.pol.Name(), err, v.Mismatch)
		}
		h.cov.verified++
	}
}

// layer runs the schedule as applied through a zero-latency Layer: one
// driver process issues the verbs, each Wait in a process of its own, and
// after each step every message the step set off lands before the next.
func (h *domainRun) layerRun() (log []string, served []string) {
	eng := sim.NewEngine()
	layer := core.NewLayer(eng, h.pol, 0)
	coords := make([]*core.Coordinator, len(hostApps))
	for i, n := range hostApps {
		coords[i] = layer.Register(n, 16)
	}
	eng.Go("driver", func(p *sim.Proc) {
		settle := func() {
			for k := 0; k < 4; k++ { // decision, grant message, woken Wait
				p.Sleep(0)
			}
		}
		for _, o := range h.ops {
			c := coords[o.app]
			bytesDone := 1e4 * float64(o.arg)
			settle()
			switch o.verb {
			case vPrepare:
				info := core.Info{}
				info.SetFloat(core.KeyBytesTotal, 1e5*float64(1+o.arg%13))
				c.Prepare(core.ParseInfo(info))
			case vComplete:
				c.Complete()
			case vInform:
				c.Progress(bytesDone)
				c.Inform(p)
			case vProgress:
				c.Progress(bytesDone)
			case vWait:
				eng.Go("wait", func(wp *sim.Proc) {
					c.Wait(wp)
					served = append(served, fmt.Sprintf("%s t=%v", c.Name(), wp.Now()))
				})
			case vRelease:
				c.Progress(bytesDone)
				c.Release(p)
			case vEnd:
				c.End(p)
			case vTick:
				p.Sleep(1000 * float64(1+o.arg%4))
			}
			settle()
		}
		eng.Stop() // or a policy that rechecks would never let the run end
	})
	eng.Run()
	return renderLog(layer.Log()), served
}

// domainSchedule runs one schedule every way it runs and fails t on the
// first disagreement.
func domainSchedule(t testing.TB, pol core.Policy, layer bool, schedule []byte) *domainRun {
	h := newDomainRun(t, pol, layer)
	h.run(schedule)
	h.finish()
	if layer {
		log, served := h.layerRun()
		if want := renderLog(h.log); !slices.Equal(log, want) {
			t.Fatalf("%s: the Layer logged\n%s\nthe Domain\n%s", pol.Name(), strings.Join(log, "\n"), strings.Join(want, "\n"))
		}
		if !slices.Equal(served, h.served) {
			t.Fatalf("%s: the Layer served\n%v\nthe Domain\n%v", pol.Name(), served, h.served)
		}
	}
	return h
}

// TestDomainMatchesHosts drives seeded schedules four ways under every
// shipped policy. LayerMatchesDaemonShard is the sim ≡ daemon check: the
// schedules the simulator can express, through the Domain, the shard, a
// replay and the Layer. ShardAndReplay adds what only the daemon sees —
// protocol violations, a phase torn down under its own Wait, sessions that
// leave mid-phase and sessions that resume — through the first three.
func TestDomainMatchesHosts(t *testing.T) {
	for _, layer := range []bool{true, false} {
		name := "ShardAndReplay"
		if layer {
			name = "LayerMatchesDaemonShard"
		}
		t.Run(name, func(t *testing.T) {
			var cov hostCoverage
			for pi, pol := range hostPolicies {
				for seed := int64(1); seed <= 8; seed++ {
					schedule := make([]byte, 240)
					rand.New(rand.NewSource(seed*31 + int64(pi))).Read(schedule)
					cov.add(domainSchedule(t, pol, layer, schedule).cov)
				}
			}
			// Verify checks the six policies their names rebuild: the
			// three static ones, delay(0.50), dynamic(cpu-seconds) and
			// fairshare(2000.00).
			if cov.decisions < 20*8*len(hostPolicies) || cov.served < 100 || cov.rechecks == 0 || cov.verified != 6*8 ||
				!layer && (cov.violations == 0 || cov.cancelled == 0 || cov.busyLeaves == 0 || cov.resumes == 0) {
				t.Fatalf("schedules missed a hazard: %+v", cov)
			}
			t.Logf("coverage: %+v", cov)
		})
	}
}

// FuzzDomainSchedule is the same check with the policy, the mode and the
// schedule chosen by the fuzzer.
func FuzzDomainSchedule(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		schedule := make([]byte, 121)
		rand.New(rand.NewSource(seed)).Read(schedule)
		f.Add(schedule)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			return
		}
		sel := int(data[0])
		domainSchedule(t, hostPolicies[sel%len(hostPolicies)], sel/len(hostPolicies)%2 == 0, data[1:])
	})
}
