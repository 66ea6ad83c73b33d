// Package replay re-arbitrates a recorded coordination trace offline: it
// drives the request events of an internal/trace log through core.Domain —
// the same coordination state machine the live daemon runs — on a virtual
// clock taken from the recorded timestamps.
//
// Like the live daemon, replay is sharded by storage target: the trace is
// compiled once per call into per-target streams (a version-1 trace is one
// stream, the default target ""), each re-arbitrated through its own Domain
// exactly as that target's shard did under its lock, under every policy the
// call asks about, and the per-target results are merged into one Result.
// A stream reproduces its shard's registration order: the daemon records
// each shard's attach as that target's EvRegister.
//
// Replay reads calciomd -record traces only (Header.Source "calciomd"):
// the daemon is the one place that knows who was authorized and when, and
// the one recorder there is.
//
// Two modes exist:
//
//   - Verify replays a trace under its own recorded policy, re-arbitrating
//     exactly where the recording did (request events plus the recorded
//     recheck instants), and checks that the reproduced authorization-flip
//     sequence matches the recorded grant/revoke events one for one.
//     Because a shard serializes its coordination under its lock and
//     records every event while holding it, the trace captures each
//     target's serialized order and the replay is exact — a mismatch means
//     the trace is lossy or the arbitration logic changed.
//
//   - Under replays the same arrival pattern under any policy ("what would
//     delay have done with last night's traffic?"). Here the recorded
//     outcome events are ignored and recheck arbitrations are synthesized
//     from the policy's own RecheckAfter requests on the virtual clock.
//
// The what-if replay is open-loop, in the tradition of LASSi-style
// after-the-fact I/O analytics: request instants stay where the recording
// put them, so its waits, their convoy-vs-protocol split and the derived
// estimates are comparative figures across policies, not absolute
// predictions. Waits still pending when the trace ends are censored at the
// last recorded instant and counted as Unserved.
package replay

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Flip is one authorization change, in delivery order within its target.
type Flip struct {
	Time   float64
	SID    uint32
	Target string // storage target whose arbiter flipped it ("" = default)
	Grant  bool   // true = granted, false = revoked
}

// String renders one flip compactly.
func (f Flip) String() string {
	kind := "revoke"
	if f.Grant {
		kind = "grant"
	}
	if f.Target != "" {
		return fmt.Sprintf("%s sid=%d target=%s t=%.6f", kind, f.SID, f.Target, f.Time)
	}
	return fmt.Sprintf("%s sid=%d t=%.6f", kind, f.SID, f.Time)
}

// flip is a Flip as a machine logs it: the target is the machine's, so the
// log holds no pointer.
type flip struct {
	time  float64
	sid   uint32
	grant bool
}

// on returns the flip as the Flip it is on target.
func (f flip) on(target string) Flip {
	return Flip{Time: f.time, SID: f.sid, Target: target, Grant: f.grant}
}

// AppResult is one session's replayed outcome on one storage target.
// Sessions are identified by the trace SID; a name can recur if an
// application re-registered, and one SID recurs across targets when the
// session coordinated on several.
type AppResult struct {
	SID    uint32
	Name   string
	Target string
	Cores  int
	Phases int
	Grants uint64

	WaitsImmediate uint64
	WaitsDeferred  uint64
	WaitS          float64 // total deferred-wait time (censored waits included)
	ConvoyWaitS    float64
	ProtocolWaitS  float64
	IOTimeS        float64 // recorded phase-open time (trace-fixed)

	// ActiveS is the time this session spent inside an access step (between
	// a served Wait and the next Release/End, at recorded instants);
	// StretchedActiveS weighs each active second by the number of
	// concurrently active sessions — the paper's equal-share interference
	// model (two overlapped accesses each progress at half speed), used by
	// Compare to stretch service time under interference-permitting
	// policies.
	ActiveS          float64
	StretchedActiveS float64

	Unserved int // waits still pending at end of trace
	Aborted  int // waits cancelled by phase end or session departure
}

// Result is the outcome of one replay.
type Result struct {
	Policy string
	Events int

	Arbitrations uint64
	GrantsServed uint64

	WaitsImmediate uint64
	WaitsDeferred  uint64
	TotalWaitS     float64
	ConvoyWaitS    float64
	ProtocolWaitS  float64

	Unserved int
	Aborted  int

	// OverlapS integrates max(0, n-1) over time per target, n being the
	// number of sessions concurrently active on that target, summed over
	// targets: the machine-seconds of interference this policy permitted (0
	// under strict serialization). Activity on different targets does not
	// count as overlap — contention is per target.
	OverlapS float64

	// MakespanS is the last virtual-clock instant of the replay (the max
	// across targets).
	MakespanS float64

	// Flips is the reproduced authorization-change sequence, grouped by
	// target in sorted target order; within a target, delivery order.
	Flips []Flip
	// Waits holds every deferred-wait duration (seconds, censored pending
	// waits included), sorted ascending for percentile queries. Immediate
	// waits contribute a zero.
	Waits []float64
	// Apps holds per-session, per-target outcomes sorted by (Name, Target,
	// SID).
	Apps []AppResult
}

// WaitPercentile returns the p-th percentile (0..100, ceil-rank semantics)
// of the wait durations, 0 when no waits were observed.
func (r *Result) WaitPercentile(p float64) float64 {
	if len(r.Waits) == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(len(r.Waits)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.Waits) {
		idx = len(r.Waits) - 1
	}
	return r.Waits[idx]
}

// MaxWait returns the largest wait duration, 0 when none.
func (r *Result) MaxWait() float64 {
	if len(r.Waits) == 0 {
		return 0
	}
	return r.Waits[len(r.Waits)-1]
}

// WaitHist summarizes the wait durations into the fixed buckets the live
// daemon's /metrics histograms use (obs.DefaultLatencyBuckets), so offline
// replay reports percentiles bucket-compatible with a live scrape.
func (r *Result) WaitHist() *wire.Hist {
	bounds := obs.DefaultLatencyBuckets
	h := &wire.Hist{BoundsS: bounds, Counts: make([]uint64, len(bounds)+1)}
	for _, w := range r.Waits {
		h.Counts[sort.SearchFloat64s(bounds, w)]++
		h.SumS += w
	}
	h.Count = uint64(len(r.Waits))
	return h
}

// checkReplayable rejects traces a replay would silently misrepresent. Only
// a calciomd recording says, shard by shard, which session attached where
// and when. A truncated trace (loaded with trace.LoadLenient after a
// recorder crash) is replayable: truncation removes a suffix, so the
// surviving prefix is still an exact record — Verify just compares flips
// prefix-wise. A lossy trace (drop-counted overflow) has holes anywhere,
// so it is always refused.
func checkReplayable(tr *trace.Trace) error {
	if tr.Header.Source != trace.SourceDaemon {
		return fmt.Errorf("replay: trace source %q is not %q: replay reads calciomd -record traces only", tr.Header.Source, trace.SourceDaemon)
	}
	if tr.Dropped > 0 {
		return fmt.Errorf("replay: trace is lossy (%d events dropped on overflow); replaying it would silently diverge", tr.Dropped)
	}
	return nil
}

// step is one event of a compiled stream, reduced to what a replay reads of
// it. It holds no pointer: the streams every machine of a Compare shares
// cost the collector nothing to scan, and a machine finds the session by
// index, not through a map.
type step struct {
	typ   trace.Type
	sid   uint32 // the recorded session identity, which flips carry
	sess  int32  // dense session index, in registration order; -1 while the session has not registered on this target
	arg   int32  // EvRegister: index into stream.regs; EvPrepare: index into stream.infos
	time  float64
	bytes float64 // EvInform, EvProgress, EvRelease
}

// registration is what one EvRegister carries.
type registration struct {
	name  string
	cores int
}

// stream is one storage target's events compiled for replay: the steps, the
// number of sessions registered there, every registration and every
// Prepare's info parsed once. It is read-only once compiled, so every cell
// of a replay grid — each policy's machine on this target — runs the same
// stream.
type stream struct {
	target   string
	steps    []step
	sessions int // distinct sessions: a machine's session table is this long
	regs     []registration
	infos    []core.ParsedInfo
	waits    int // EvWait steps: every wait a replay can serve
	recorded int // EvGrant and EvRevoke steps: every flip a verify compares
}

// compile splits a trace into per-target streams, in sorted target order.
// The daemon records every event — register, recheck and unregister
// included — on the shard that owns its target, so the trace partitions
// exactly. A version-1 trace has every Target empty and compiles into the
// single default stream — byte-for-byte the unsharded replay input.
func compile(tr *trace.Trace) []stream {
	// Find each event's stream and count the streams' events and Prepares
	// first, so that each stream's steps and infos are allocated once.
	idx := make(map[string]int32)
	at := make([]int32, len(tr.Events))
	var streams []stream
	var counts, prepares []int
	for i := range tr.Events {
		name := tr.Events[i].Target
		p, ok := idx[name]
		if !ok {
			p = int32(len(streams))
			idx[name] = p
			streams = append(streams, stream{target: name})
			counts, prepares = append(counts, 0), append(prepares, 0)
		}
		at[i] = p
		counts[p]++
		if tr.Events[i].Type == trace.EvPrepare {
			prepares[p]++
		}
	}
	// Per stream: each SID's dense session index, from its first register
	// there.
	dense := make([]map[uint32]int32, len(streams))
	for p := range streams {
		streams[p].steps = make([]step, 0, counts[p])
		streams[p].infos = make([]core.ParsedInfo, 0, prepares[p])
		dense[p] = make(map[uint32]int32)
	}
	for i := range tr.Events {
		ev, st, sids := &tr.Events[i], &streams[at[i]], dense[at[i]]
		d, ok := sids[ev.SID]
		if !ok {
			d = -1
		}
		var arg int32
		switch ev.Type {
		case trace.EvRegister:
			// The daemon's rebind re-registers a resumed session's sid on
			// a shard it attached to before: the same index.
			if d < 0 {
				d = int32(st.sessions)
				sids[ev.SID] = d
				st.sessions++
			}
			arg = int32(len(st.regs))
			st.regs = append(st.regs, registration{name: ev.App, cores: int(ev.Cores)})
		case trace.EvPrepare:
			arg = int32(len(st.infos))
			st.infos = append(st.infos, ev.Prepared())
		case trace.EvWait:
			st.waits++
		case trace.EvGrant, trace.EvRevoke:
			st.recorded++
		}
		st.steps = append(st.steps, step{typ: ev.Type, sid: ev.SID, sess: d, arg: arg, time: ev.Time, bytes: ev.Bytes})
	}
	sort.Slice(streams, func(i, j int) bool { return streams[i].target < streams[j].target })
	return streams
}

// mergeResults combines the per-target results of finished machines into
// the machine-wide view: counters sum, Flips concatenate in target order,
// Waits re-sort, Apps re-sort by (Name, Target, SID), the makespan is the
// max. It copies everything it keeps, so the machines can be released.
func mergeResults(policy string, parts []*machine) Result {
	out := Result{Policy: policy}
	var flips, waits, apps int
	for _, m := range parts {
		flips, waits, apps = flips+len(m.flips), waits+len(m.res.Waits), apps+len(m.res.Apps)
	}
	out.Flips, out.Waits, out.Apps = make([]Flip, 0, flips), make([]float64, 0, waits), make([]AppResult, 0, apps)
	for _, m := range parts {
		r := &m.res
		out.Events += r.Events
		out.Arbitrations += r.Arbitrations
		out.GrantsServed += r.GrantsServed
		out.WaitsImmediate += r.WaitsImmediate
		out.WaitsDeferred += r.WaitsDeferred
		out.TotalWaitS += r.TotalWaitS
		out.ConvoyWaitS += r.ConvoyWaitS
		out.ProtocolWaitS += r.ProtocolWaitS
		out.Unserved += r.Unserved
		out.Aborted += r.Aborted
		out.OverlapS += r.OverlapS
		if r.MakespanS > out.MakespanS {
			out.MakespanS = r.MakespanS
		}
		for _, f := range m.flips {
			out.Flips = append(out.Flips, f.on(m.st.target))
		}
		out.Waits = append(out.Waits, r.Waits...)
		out.Apps = append(out.Apps, r.Apps...)
	}
	sort.Float64s(out.Waits)
	sort.Slice(out.Apps, func(i, j int) bool {
		a, b := &out.Apps[i], &out.Apps[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.SID < b.SID
	})
	return out
}

// Under replays the trace's request events under the given policy,
// re-arbitrating each storage target's stream independently and
// synthesizing per-target recheck arbitrations from the policy's
// RecheckAfter requests (the recorded outcome and recheck events are
// ignored).
func Under(tr *trace.Trace, pol core.Policy) (Result, error) {
	if err := checkReplayable(tr); err != nil {
		return Result{}, err
	}
	results, err := replayGrid(compile(tr), []core.Policy{pol}, nil)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// replayGrid re-arbitrates every stream under every policy and returns one
// merged Result per policy. The policies × streams cells share nothing but
// read-only input (the streams, the policy values), so up to GOMAXPROCS
// workers, the caller's goroutine one of them, take cells off a counter in
// (policy, stream) order, each cell on a machine borrowed from the pool,
// and whoever finishes a policy's last stream merges that policy and hands
// its cells' machines back. The countdown that elects the merging worker
// also orders every cell's writes before the merge reads them, and so
// before the hand-back. No result depends on who ran what: a cell writes
// its own slot and every merge goes by index. The first error in cell
// order is the one returned.
//
// With check set the cells verify instead of asking what-if: they
// re-arbitrate exactly where the recording did, collect its flips, and pass
// the finished machine to check — from any worker, one stream each. The
// machine goes back to the pool after the merge, so check copies what it
// keeps.
func replayGrid(streams []stream, pols []core.Policy, check func(stream int, m *machine)) ([]Result, error) {
	var (
		next   atomic.Int64
		parts  = make([]*machine, len(pols)*len(streams)) // cell (p, s) at p*len(streams)+s
		errs   = make([]error, len(parts))
		merged = make([]Result, len(pols))
		left   = make([]atomic.Int64, len(pols)) // cells a policy's merge still waits for
	)
	for p, pol := range pols {
		left[p].Store(int64(len(streams)))
		if len(streams) == 0 {
			merged[p] = mergeResults(pol.Name(), nil)
		}
	}
	work := func() {
		for c := int(next.Add(1)) - 1; c < len(parts); c = int(next.Add(1)) - 1 {
			p, s := c/len(streams), c%len(streams)
			m := newMachine(pols[p], &streams[s], check != nil)
			if errs[c] = m.run(); errs[c] == nil {
				m.finish()
				if check != nil {
					check(s, m)
				}
			}
			parts[c] = m
			if left[p].Add(-1) == 0 {
				mine := parts[p*len(streams) : (p+1)*len(streams)]
				merged[p] = mergeResults(pols[p].Name(), mine)
				for _, m := range mine {
					m.release()
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(parts)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if c := slices.IndexFunc(errs, func(err error) bool { return err != nil }); c >= 0 {
		return nil, errs[c]
	}
	return merged, nil
}

// ShardVerify is one storage target's slice of an exact reproduction check.
type ShardVerify struct {
	Target       string
	GrantsServed uint64
	Flips        int
	Recorded     int
	Match        bool
	Mismatch     string
}

// VerifyResult is the outcome of an exact reproduction check.
type VerifyResult struct {
	Result
	// Recorded is the grant/revoke sequence the daemon logged, grouped by
	// target in sorted target order.
	Recorded []Flip
	// Match reports whether every target's replayed flips equal its
	// recorded ones event for event; Mismatch describes the first
	// divergence otherwise.
	Match    bool
	Mismatch string
	// Shards holds the per-target checks, in sorted target order.
	Shards []ShardVerify
}

// Verify replays a daemon-side trace under its own recorded policy and
// compares, per storage target, the reproduced authorization-flip sequence
// against the recorded one, event for event. The check is per target
// because only a target's own serialized order is recorded — the file-level
// interleaving across targets is scheduling noise.
func Verify(tr *trace.Trace) (VerifyResult, error) {
	if err := checkReplayable(tr); err != nil {
		return VerifyResult{}, err
	}
	pol, err := tr.Header.BuildPolicy()
	if err != nil {
		return VerifyResult{}, fmt.Errorf("replay: recording policy: %w", err)
	}
	streams := compile(tr)
	// A verify machine records every grant and revoke of its stream, so each
	// target's recorded flips have their place in v.Recorded, at[s] on,
	// before the replay starts.
	at := make([]int, len(streams)+1)
	for s := range streams {
		at[s+1] = at[s] + streams[s].recorded
	}
	v := VerifyResult{Match: true, Recorded: make([]Flip, at[len(streams)]), Shards: make([]ShardVerify, len(streams))}
	results, err := replayGrid(streams, []core.Policy{pol}, func(s int, m *machine) {
		// On a truncated trace the file may have lost flip records whose
		// triggering requests survived, so the recorded flips are verified
		// as a prefix of the replayed sequence instead of an exact match.
		match, mismatch := compareFlips(m.st.target, m.recorded, m.flips, tr.Truncated)
		if !match && m.st.target != "" {
			mismatch = fmt.Sprintf("target %s: %s", m.st.target, mismatch)
		}
		v.Shards[s] = ShardVerify{
			Target:       m.st.target,
			GrantsServed: m.res.GrantsServed,
			Flips:        len(m.flips),
			Recorded:     len(m.recorded),
			Match:        match,
			Mismatch:     mismatch,
		}
		for i, f := range m.recorded {
			v.Recorded[at[s]+i] = f.on(m.st.target)
		}
	})
	if err != nil {
		return VerifyResult{}, err
	}
	v.Result = results[0]
	for _, sh := range v.Shards {
		if !sh.Match && v.Match {
			v.Match, v.Mismatch = false, sh.Mismatch
		}
	}
	return v, nil
}

func compareFlips(target string, recorded, replayed []flip, prefixOK bool) (bool, string) {
	n := len(recorded)
	if len(replayed) < n {
		n = len(replayed)
	}
	for i := 0; i < n; i++ {
		if recorded[i] != replayed[i] {
			return false, fmt.Sprintf("flip %d: recorded %s, replayed %s", i, recorded[i].on(target), replayed[i].on(target))
		}
	}
	if prefixOK && len(recorded) <= len(replayed) {
		return true, ""
	}
	if len(recorded) != len(replayed) {
		return false, fmt.Sprintf("recorded %d flips, replayed %d", len(recorded), len(replayed))
	}
	return true, ""
}

// sess is one session on the replayed target: its core.AppState, ledger
// included, and the replay-only figures of its AppResult.
type sess struct {
	app   core.AppState
	sid   uint32
	name  string
	cores int
	known bool // registered at least once: sid, name, cores and idx are set

	idx    int32 // the stream's dense session index
	active int32 // index in machine.active; -1 outside an access step

	res AppResult
}

// machine replays one target's stream through a core.Domain, adding the
// virtual clock, accrual and the flip logs.
type machine struct {
	dom *core.Domain
	st  *stream
	// sess is indexed by the stream's dense session index, which is also
	// registration order.
	sess []sess
	// active holds the sessions inside an access step — one under a
	// serializing policy, whoever overlaps under a permissive one — so that
	// accrue, which runs per event, visits them and not every session. Its
	// order is immaterial: each session accrues into its own figures.
	active    []int32
	now       float64
	recheckAt float64
	// verify: re-arbitrate at the recorded EvRechecks and collect the recorded
	// flips. A what-if machine ignores both and follows RecheckAfter instead.
	verify bool

	flips    []flip
	recorded []flip
	res      Result
}

// machines holds released machines for the next replay to borrow: the
// session table, the active list, the flip logs, the wait log and the app
// rows are a cell's working memory, dead once its policy is merged, and a
// borrowed machine reuses them at whatever capacity earlier replays left.
var machines = sync.Pool{New: func() any { return new(machine) }}

// newMachine borrows a machine for the replay of one stream. A stream's
// waits bound what its replay can serve, so the wait log never grows; a flip
// log holds as many flips as were recorded in verify mode, and elsewhere
// starts at a grant per served wait and a revoke per grant, which a delay
// policy's own revokes outgrow.
func newMachine(pol core.Policy, st *stream, verify bool) *machine {
	arb := core.NewArbiter(pol)
	arb.Reserve(st.sessions)
	m := machines.Get().(*machine)
	flips, recorded := 2*st.waits, 0
	if verify {
		flips, recorded = st.recorded, st.recorded
	}
	*m = machine{
		dom: core.NewDomain(arb),
		st:  st,
		// release cleared every session a replay used, so the whole
		// capacity is zero.
		sess:      slices.Grow(m.sess[:0], st.sessions)[:st.sessions],
		active:    m.active[:0],
		recheckAt: math.Inf(1),
		verify:    verify,
		flips:     slices.Grow(m.flips[:0], flips),
		recorded:  slices.Grow(m.recorded[:0], recorded),
		res: Result{
			Policy: pol.Name(),
			Waits:  slices.Grow(m.res.Waits[:0], st.waits),
			Apps:   slices.Grow(m.res.Apps[:0], st.sessions),
		},
	}
	return m
}

// release hands a merged machine back to the pool. It clears every entry
// that holds a pointer — a session's AppState, the names in the sessions
// and the app rows — so that the pool pins no Arbiter and no trace.
func (m *machine) release() {
	clear(m.sess)
	clear(m.res.Apps)
	m.dom, m.st = nil, nil
	machines.Put(m)
}

// activate adds a session whose Wait was just served to the active list.
func (m *machine) activate(s *sess) {
	if s.active < 0 {
		s.active = int32(len(m.active))
		m.active = append(m.active, s.idx)
	}
}

// deactivate drops a session that left its access step (released, ended its
// phase or went away) from the active list; a no-op for any other.
func (m *machine) deactivate(s *sess) {
	if s.active < 0 {
		return
	}
	last := m.active[len(m.active)-1]
	m.active[s.active] = last
	m.sess[last].active = s.active
	m.active = m.active[:len(m.active)-1]
	s.active = -1
}

func (m *machine) run() error {
	for i := range m.st.steps {
		if err := m.step(&m.st.steps[i]); err != nil {
			return fmt.Errorf("replay: event %d (%s): %w", i, m.st.steps[i].typ, err)
		}
	}
	return nil
}

func (m *machine) step(st *step) error {
	// A shard reads the clock under its lock, so its recorded times never
	// fall; one that does was not recorded by a daemon shard.
	t := st.time
	if t < m.now {
		return fmt.Errorf("time %g precedes the previous event's %g", t, m.now)
	}
	// Synthesized rechecks due before this event fire first, exactly as the
	// daemon's recheck timer would have.
	for !m.verify && m.recheckAt <= t {
		rt := m.recheckAt
		m.recheckAt = math.Inf(1)
		m.accrue(rt - m.now)
		m.now = rt
		m.arbitrate(rt)
		if m.recheckAt <= rt { // policies must move rechecks forward
			m.recheckAt = math.Inf(1)
		}
	}
	m.accrue(t - m.now)
	m.now = t
	m.res.Events++

	if st.typ == trace.EvRecheck {
		if m.verify {
			m.arbitrate(t)
		}
		return nil
	}
	if st.typ == trace.EvRegister {
		return m.register(st)
	}
	// A shard records a session's events only while it is attached there,
	// between its EvRegister and its EvUnregister.
	if st.sess < 0 || !m.sess[st.sess].app.Joined() {
		return fmt.Errorf("sid %d is not registered on this target", st.sid)
	}
	s := &m.sess[st.sess]
	d, a := m.dom, &s.app

	// A violation changes nothing and nobody reads it. The daemon records
	// a Release before its state check, so one it refused (no served Wait
	// to release) is in the trace; and a what-if replay under another
	// policy meets verbs in states the recording policy never left the
	// session in, such as a Release while that policy still parks its
	// Wait.
	switch st.typ {
	case trace.EvPrepare:
		a.Prepare(m.st.infos[st.arg])

	case trace.EvComplete:
		a.Complete()

	case trace.EvInform:
		m.settle(d.Inform(t, a, st.bytes), t)

	case trace.EvProgress:
		a.Progress(st.bytes)

	case trace.EvCheck:
		// State-free.

	case trace.EvWait:
		if d.Wait(t, a, false).Served {
			m.activate(s)
			m.res.Waits = append(m.res.Waits, 0)
		}

	case trace.EvRelease:
		if e := d.Release(a, st.bytes); e.Arbitrate {
			m.deactivate(s)
			m.settle(e, t)
		}

	case trace.EvEnd:
		e := d.End(t, a)
		if e.Cancelled {
			// The daemon fails a Wait pending under its own phase teardown.
			s.res.Aborted++
		}
		m.deactivate(s)
		m.settle(e, t)

	case trace.EvUnregister:
		e := d.Leave(t, a)
		if e.Cancelled {
			s.res.Aborted++
		}
		m.deactivate(s)
		if !m.verify {
			// In verify mode the recorded EvRecheck drives the daemon's
			// re-arbitration after a mid-phase session vanished.
			m.settle(e, t)
		}

	case trace.EvGrant, trace.EvRevoke:
		if m.verify {
			m.recorded = append(m.recorded, flip{time: t, sid: st.sid, grant: st.typ == trace.EvGrant})
		}

	default:
		return fmt.Errorf("unhandled event type %d", st.typ)
	}
	return nil
}

// register joins a session to the target's domain; a resume (unregister and
// register under one sid, as the daemon's rebind records) keeps its ledger.
func (m *machine) register(st *step) error {
	s := &m.sess[st.sess]
	if s.app.Joined() {
		return fmt.Errorf("duplicate sid %d", st.sid)
	}
	reg := &m.st.regs[st.arg]
	if !s.known {
		*s = sess{sid: st.sid, name: reg.name, cores: reg.cores, known: true, idx: st.sess, active: -1}
	}
	s.app.Data = s
	return m.dom.Join(&s.app, reg.name, reg.cores)
}

// accrue charges dt of virtual time to every session currently inside an
// access step: plain seconds into ActiveS, concurrency-weighted seconds
// into StretchedActiveS, and the surplus into the machine-wide OverlapS. A
// revoked-but-still-active session keeps accruing — preemption takes effect
// only at its next coordination point, exactly as in the live protocol.
func (m *machine) accrue(dt float64) {
	n := len(m.active)
	if dt <= 0 || n == 0 {
		return
	}
	for _, i := range m.active {
		s := &m.sess[i]
		s.res.ActiveS += dt
		s.res.StretchedActiveS += dt * float64(n)
	}
	m.res.OverlapS += dt * float64(n-1)
}

// settle runs the arbitration a verb's Effect asks for.
func (m *machine) settle(e core.Effect, t float64) {
	if e.Arbitrate {
		m.arbitrate(t)
	}
}

func (m *machine) arbitrate(t float64) {
	dec := m.dom.Arbitrate(t)
	m.recheckAt = dec.RecheckAt
	for _, a := range dec.Granted {
		s := a.Data.(*sess)
		m.flips = append(m.flips, flip{time: t, sid: s.sid, grant: true})
		if a.Parked() {
			d, _ := m.dom.Serve(t, a) // the served Wait enters the access step
			m.activate(s)
			m.res.Waits = append(m.res.Waits, d)
		}
	}
	for _, a := range dec.Revoked {
		s := a.Data.(*sess)
		m.flips = append(m.flips, flip{time: t, sid: s.sid})
	}
}

// finish closes the books: open phases and pending waits are censored at
// the final virtual-clock instant and per-session results are aggregated,
// in registration order. mergeResults sorts the applications and the waits.
func (m *machine) finish() {
	var tot core.Ledger
	for i := range m.sess {
		s := &m.sess[i]
		r := &s.res
		if d, ok := s.app.Censor(m.now); ok {
			r.Unserved++
			m.res.Waits = append(m.res.Waits, d)
		}
		l := s.app.Ledger()
		r.SID, r.Name, r.Target, r.Cores = s.sid, s.name, m.st.target, s.cores
		r.Phases, r.Grants = l.Phases, l.Grants
		r.WaitsImmediate, r.WaitsDeferred = l.WaitsImmediate, l.WaitsDeferred
		r.WaitS, r.ConvoyWaitS, r.ProtocolWaitS = l.WaitS, l.ConvoyWaitS, l.ProtocolWaitS
		r.IOTimeS = s.app.IOTimeAt(m.now)
		m.res.Apps = append(m.res.Apps, *r)
		tot.Add(l)
		m.res.Unserved += r.Unserved
		m.res.Aborted += r.Aborted
	}
	m.res.Arbitrations, m.res.GrantsServed = m.dom.Arbitrations(), tot.Grants
	m.res.WaitsImmediate, m.res.WaitsDeferred = tot.WaitsImmediate, tot.WaitsDeferred
	m.res.TotalWaitS, m.res.ConvoyWaitS, m.res.ProtocolWaitS = tot.WaitS, tot.ConvoyWaitS, tot.ProtocolWaitS
	m.res.MakespanS = m.now
}

// Outcome is one policy's replay plus the derived cross-policy estimates.
//
// The estimation follows the quantitative-interference tradition: each
// session's recorded I/O time splits into service time (phase time minus
// the wait the baseline replay attributes to coordination) and wait. Under
// another policy the wait is re-arbitrated, and the service time is
// stretched by the equal-share interference model — every active second
// shared with n-1 other active sessions costs n seconds (the paper's
// expected-∆ model), so permissive policies pay in stretch what they save
// in waiting. EstIOTimeS is Σ stretched service + wait, the per-app
// interference factor is (stretched+wait)/service, and CPUSecondsWasted is
// Σ cores · (stretched + wait).
type Outcome struct {
	Result
	EstIOTimeS       float64
	SumInterference  float64
	CPUSecondsWasted float64
}

// Comparison is a full cross-policy what-if study of one trace.
type Comparison struct {
	// Recording is the policy name the trace was recorded under.
	Recording string
	// Baseline is the what-if replay under the recording policy; its wait
	// attribution defines each session's service time.
	Baseline Result
	// Outcomes holds one entry per requested policy, in input order.
	Outcomes []Outcome
	// Best indexes the recommended outcome: minimal CPUSecondsWasted, ties
	// broken by total wait, then input order.
	Best int
}

// Compare replays the trace under every given policy and derives the
// comparison metrics against the recording-policy baseline.
func Compare(tr *trace.Trace, policies []core.Policy) (Comparison, error) {
	if len(policies) == 0 {
		return Comparison{}, fmt.Errorf("replay: no policies to compare")
	}
	if err := checkReplayable(tr); err != nil {
		return Comparison{}, err
	}
	basePol, err := tr.Header.BuildPolicy()
	if err != nil {
		return Comparison{}, fmt.Errorf("replay: recording policy: %w", err)
	}
	// The baseline replay comes first; a candidate that is the recording
	// policy itself reuses it instead of re-arbitrating the whole trace.
	pols := append(make([]core.Policy, 0, 1+len(policies)), basePol)
	row := make([]int, len(policies)) // each candidate's place in pols
	for i, p := range policies {
		if p.Name() != basePol.Name() {
			row[i] = len(pols)
			pols = append(pols, p)
		}
	}
	// What makes a stream unreplayable does so under any policy, so an error
	// is the baseline's and carries no candidate's name.
	results, err := replayGrid(compile(tr), pols, nil)
	if err != nil {
		return Comparison{}, err
	}
	base := results[0]
	// Service time per (session, target): recorded phase time minus the
	// wait the baseline attributes to coordination.
	type svcKey struct {
		sid    uint32
		target string
	}
	service := make(map[svcKey]float64, len(base.Apps))
	for _, a := range base.Apps {
		s := a.IOTimeS - a.WaitS
		if s < 0 {
			s = 0
		}
		service[svcKey{a.SID, a.Target}] = s
	}
	c := Comparison{Recording: tr.Header.Policy, Baseline: base}
	for i := range policies {
		res := results[row[i]]
		rep := metrics.Report{Apps: make([]metrics.AppResult, 0, len(res.Apps))}
		var est float64
		for _, a := range res.Apps {
			sv := service[svcKey{a.SID, a.Target}]
			scaled := sv
			if a.ActiveS > 0 {
				scaled = sv * a.StretchedActiveS / a.ActiveS
			}
			estApp := scaled + a.WaitS
			est += estApp
			rep.Apps = append(rep.Apps, metrics.AppResult{
				Name:   a.Name,
				Cores:  a.Cores,
				IOTime: estApp,
				// AloneTime is the contention-free service time, so the
				// factor isolates what this policy's waiting and permitted
				// interference cost.
				AloneTime: sv,
			})
		}
		c.Outcomes = append(c.Outcomes, Outcome{
			Result:           res,
			EstIOTimeS:       est,
			SumInterference:  rep.SumInterferenceFinite(),
			CPUSecondsWasted: rep.CPUSecondsWasted(),
		})
	}
	c.Best = 0
	for i := 1; i < len(c.Outcomes); i++ {
		a, b := &c.Outcomes[i], &c.Outcomes[c.Best]
		switch {
		case a.CPUSecondsWasted < b.CPUSecondsWasted:
			c.Best = i
		case a.CPUSecondsWasted == b.CPUSecondsWasted && a.TotalWaitS < b.TotalWaitS:
			c.Best = i
		}
	}
	return c, nil
}

// StandardPolicies builds the canonical comparison set for a trace through
// core.ParsePolicy, each named by the spec calciomd -policy takes: the three
// static policies always, plus delay and dynamic(cpu-seconds) when the
// header carries a performance model. overlap < 0 (or NaN) takes a delay
// recording's own overlap, 0.5 when it has none.
func StandardPolicies(hdr trace.Header, overlap float64) []core.Policy {
	specs, m := []string{"fcfs", "interrupt", "interfere"}, hdr.Model()
	if m != nil {
		if rec, _ := hdr.BuildPolicy(); !(overlap >= 0) {
			overlap = 0.5
			if d, ok := rec.(core.DelayPolicy); ok && d.Overlap != 0 {
				overlap = d.Overlap
			}
		}
		specs = append(specs, "delay("+strconv.FormatFloat(overlap, 'g', -1, 64)+")", "dynamic(cpu-seconds)")
	}
	out := make([]core.Policy, len(specs))
	for i, spec := range specs {
		out[i], _ = core.ParsePolicy(spec, m) // well formed, with a model where one is needed
	}
	return out
}
