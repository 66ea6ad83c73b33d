// Package replay re-arbitrates a recorded coordination trace offline: it
// drives the request events of an internal/trace log through core.Arbiter —
// the same arbitration state machine the live daemon runs — on a virtual
// clock taken from the recorded timestamps.
//
// Like the live daemon, replay is sharded by storage target: the trace is
// partitioned into per-target event streams (a version-1 trace is one
// stream, the default target ""), each stream is re-arbitrated through its
// own Arbiter exactly as that target's shard did under its lock, and the
// per-target results are merged into one Result. Registration is per
// target: a daemon trace records each shard's attach as its own EvRegister,
// so the partition reproduces each shard's registration order; client-side
// captures record one register per session, which the partitioner copies
// into every target the session later touches (and its unregister
// likewise), at the instant of first touch — mirroring the daemon's lazy
// attach.
//
// Two modes exist:
//
//   - Verify replays a daemon-side trace under its own recorded policy,
//     re-arbitrating exactly where the recording did (request events plus
//     the recorded recheck instants), and checks that the reproduced
//     authorization-flip sequence matches the recorded grant/revoke events
//     one for one. Because the daemon serializes all coordination through a
//     single goroutine, the trace captures the full serialized order and the
//     replay is exact — a mismatch means the trace is lossy or the
//     arbitration logic changed.
//
//   - Under replays the same arrival pattern under any policy ("what would
//     delay have done with last night's traffic?"). Here the recorded
//     outcome events are ignored and recheck arbitrations are synthesized
//     from the policy's own RecheckAfter requests on the virtual clock.
//
// The what-if replay is open-loop, in the tradition of LASSi-style
// after-the-fact I/O analytics: request instants stay where the recording
// put them, even though a live application blocked longer in Wait would
// have issued its next request later. Wait durations, their convoy-vs-
// protocol decomposition (identical to the daemon's live wire.Stats
// breakdown), and the derived interference and CPU-seconds estimates are
// therefore comparative figures across policies, not absolute predictions.
// Waits still pending when the trace ends are censored at the last recorded
// instant and counted as Unserved.
package replay

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/config"
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

// RecordingPolicy rebuilds the policy the trace was recorded under from its
// header, via the same construction path as the daemon configuration.
func RecordingPolicy(hdr trace.Header) (core.Policy, error) {
	return headerDaemon(hdr).BuildPolicy()
}

// Model rebuilds the recording daemon's performance model from the header;
// nil when the daemon had none.
func Model(hdr trace.Header) *core.PerfModel {
	return headerDaemon(hdr).Model()
}

func headerDaemon(hdr trace.Header) config.Daemon {
	return config.Daemon{
		Policy:       hdr.Policy,
		DelayOverlap: hdr.DelayOverlap,
		FSMiBps:      hdr.FSMiBps,
		ProcNICMiBps: hdr.ProcNICMiBps,
	}
}

// checkReplayable rejects traces a replay would silently misrepresent. A
// truncated trace (loaded with trace.LoadLenient after a recorder crash) is
// replayable: truncation removes a suffix, so the surviving prefix is still
// an exact record — Verify just compares flips prefix-wise. A lossy trace
// (drop-counted overflow) has holes anywhere, so it is always refused.
func checkReplayable(tr *trace.Trace) error {
	if tr.Dropped > 0 {
		return fmt.Errorf("replay: trace is lossy (%d events dropped on overflow); replaying it would silently diverge", tr.Dropped)
	}
	return nil
}

// shardEvents is one storage target's slice of a partitioned trace. Its
// events are the trace's own, by pointer — replay only ever reads them — but
// for the few registers and unregisters a client capture has copied in.
type shardEvents struct {
	Target string
	Events []*trace.Event
	waits  int // EvWait events among them: every wait a replay can serve
}

// partition splits a trace into per-target event streams, in sorted target
// order. Daemon traces partition exactly: every event (register, recheck
// and unregister included) was recorded by the shard that owns its target.
// Client-side captures record registration once per session, so the
// partitioner mirrors the daemon's lazy attach: the register is copied into
// a target's stream at the session's first event there, and the session's
// unregister is copied into every target it touched. A version-1 trace has
// every Target empty and partitions into the single default stream —
// byte-for-byte the unsharded replay input.
func partition(tr *trace.Trace) []shardEvents {
	type regInfo struct {
		app   string
		cores int32
	}
	// Count first, so that each stream is allocated once: a stream holds the
	// trace's events on its target, plus — in a client capture only — the
	// few registers and unregisters copied in, which append makes room for.
	idx := make(map[string]int)
	var parts []shardEvents
	var counts []int
	for i := range tr.Events {
		ev := &tr.Events[i]
		p, ok := idx[ev.Target]
		if !ok {
			p = len(parts)
			idx[ev.Target] = p
			parts = append(parts, shardEvents{Target: ev.Target})
			counts = append(counts, 0)
		}
		counts[p]++
		if ev.Type == trace.EvWait {
			parts[p].waits++
		}
	}
	for i := range parts {
		parts[i].Events = make([]*trace.Event, 0, counts[i])
	}
	emit := func(target string, ev *trace.Event) {
		p := &parts[idx[target]] // every target emitted to is some event's
		p.Events = append(p.Events, ev)
	}
	type attachKey struct {
		target string
		sid    uint32
	}
	regs := make(map[uint32]regInfo)
	attached := make(map[attachKey]bool)
	client := tr.Header.Source == trace.SourceClient
	for i := range tr.Events {
		ev := &tr.Events[i]
		switch ev.Type {
		case trace.EvRegister:
			regs[ev.SID] = regInfo{app: ev.App, cores: ev.Cores}
			if client {
				// A client-side register is session metadata, not an
				// attach: the session joins a target's stream lazily at
				// its first event there, like the daemon's lazy attach —
				// so no stream carries sessions that never coordinate on
				// its target.
				continue
			}
			attached[attachKey{ev.Target, ev.SID}] = true
			emit(ev.Target, ev)
		case trace.EvRecheck:
			emit(ev.Target, ev)
		case trace.EvUnregister:
			if attached[attachKey{ev.Target, ev.SID}] {
				delete(attached, attachKey{ev.Target, ev.SID})
				emit(ev.Target, ev)
			}
			if client {
				// One recorded unregister stands for the whole session:
				// propagate it to every other target it attached to.
				for j := range parts {
					t := parts[j].Target
					if t == ev.Target || !attached[attachKey{t, ev.SID}] {
						continue
					}
					delete(attached, attachKey{t, ev.SID})
					cp := *ev
					cp.Target = t
					emit(t, &cp)
				}
			}
		default:
			if !attached[attachKey{ev.Target, ev.SID}] && ev.SID != 0 {
				if reg, ok := regs[ev.SID]; ok {
					attached[attachKey{ev.Target, ev.SID}] = true
					emit(ev.Target, &trace.Event{Type: trace.EvRegister, Time: ev.Time,
						SID: ev.SID, App: reg.app, Cores: reg.cores, Target: ev.Target})
				}
			}
			emit(ev.Target, ev)
		}
	}
	// A target nothing was emitted to (a client capture's registers are
	// metadata, an unregister may find nothing attached) has no stream.
	parts = slices.DeleteFunc(parts, func(p shardEvents) bool { return len(p.Events) == 0 })
	sort.Slice(parts, func(i, j int) bool { return parts[i].Target < parts[j].Target })
	return parts
}

// mergeResults combines per-target results into the machine-wide view:
// counters sum, Flips concatenate in target order, Waits re-sort, Apps
// re-sort by (Name, Target, SID), the makespan is the max.
func mergeResults(policy string, parts []Result) Result {
	out := Result{Policy: policy}
	var flips, waits, apps int
	for i := range parts {
		flips, waits, apps = flips+len(parts[i].Flips), waits+len(parts[i].Waits), apps+len(parts[i].Apps)
	}
	out.Flips, out.Waits, out.Apps = make([]Flip, 0, flips), make([]float64, 0, waits), make([]AppResult, 0, apps)
	for i := range parts {
		r := &parts[i]
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
		out.Flips = append(out.Flips, r.Flips...)
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
	results, err := replayGrid(partition(tr), []core.Policy{pol}, nil)
	if err != nil {
		return Result{}, err
	}
	return results[0], nil
}

// replayGrid re-arbitrates every stream under every policy and returns one
// merged Result per policy. The policies × streams cells share nothing but
// read-only input (the streams, the policy values), so up to GOMAXPROCS
// workers, the caller's goroutine one of them, take cells off a counter in
// (policy, stream) order, each cell on a machine of its own, and whoever
// finishes a policy's last stream merges that policy. No result depends on
// who ran what: a cell writes its own slot and every merge goes by index.
// The first error in cell order is the one returned.
//
// With check set the cells verify instead of asking what-if: they
// re-arbitrate exactly where the recording did, collect its flips, and pass
// the finished machine and result to check — from any worker, one stream each.
func replayGrid(streams []shardEvents, pols []core.Policy, check func(stream int, m *machine, res *Result)) ([]Result, error) {
	var (
		next   atomic.Int64
		parts  = make([]Result, len(pols)*len(streams)) // cell (p, s) at p*len(streams)+s
		errs   = make([]error, len(parts))
		merged = make([]Result, len(pols))
		left   = make([]atomic.Int64, len(pols)) // cells a policy's merge still waits for
		// A grant per served wait and a revoke per grant is all a serializing or
		// preempting policy flips. One that also takes grants back on its own
		// rechecks (delay) flips more, by a factor only its replay shows: the
		// cells of a policy that have finished size the flip log of its next.
		flipsPerWait = make([]atomic.Int64, len(pols))
	)
	for p, pol := range pols {
		left[p].Store(int64(len(streams)))
		flipsPerWait[p].Store(2)
		if len(streams) == 0 {
			merged[p] = mergeResults(pol.Name(), nil)
		}
	}
	work := func() {
		for c := int(next.Add(1)) - 1; c < len(parts); c = int(next.Add(1)) - 1 {
			p, s := c/len(streams), c%len(streams)
			stream, hint := streams[s], &flipsPerWait[p]
			m := newMachine(pols[p], stream, int(hint.Load())*stream.waits, check != nil)
			if errs[c] = m.run(stream.Events); errs[c] == nil {
				parts[c] = m.finish()
				if stream.waits > 0 {
					per := int64((len(parts[c].Flips) + stream.waits - 1) / stream.waits)
					for old := hint.Load(); per > old && !hint.CompareAndSwap(old, per); old = hint.Load() {
					}
				}
				if check != nil {
					check(s, m, &parts[c])
				}
			}
			if left[p].Add(-1) == 0 {
				mine := parts[p*len(streams) : (p+1)*len(streams)]
				merged[p] = mergeResults(pols[p].Name(), mine)
				clear(mine) // merged by copy: a policy's parts go as soon as it is whole
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
	if tr.Header.Source != trace.SourceDaemon {
		return VerifyResult{}, fmt.Errorf("replay: exact verification needs a daemon-side trace (source %q)", tr.Header.Source)
	}
	if err := checkReplayable(tr); err != nil {
		return VerifyResult{}, err
	}
	pol, err := RecordingPolicy(tr.Header)
	if err != nil {
		return VerifyResult{}, fmt.Errorf("replay: recording policy: %w", err)
	}
	streams := partition(tr)
	v := VerifyResult{Match: true, Shards: make([]ShardVerify, len(streams))}
	recorded := make([][]Flip, len(streams))
	results, err := replayGrid(streams, []core.Policy{pol}, func(s int, m *machine, res *Result) {
		// On a truncated trace the file may have lost flip records whose
		// triggering requests survived, so the recorded flips are verified
		// as a prefix of the replayed sequence instead of an exact match.
		match, mismatch := compareFlips(m.recorded, res.Flips, tr.Truncated)
		if !match && m.target != "" {
			mismatch = fmt.Sprintf("target %s: %s", m.target, mismatch)
		}
		v.Shards[s] = ShardVerify{
			Target:       m.target,
			GrantsServed: res.GrantsServed,
			Flips:        len(res.Flips),
			Recorded:     len(m.recorded),
			Match:        match,
			Mismatch:     mismatch,
		}
		recorded[s] = m.recorded
	})
	if err != nil {
		return VerifyResult{}, err
	}
	v.Result = results[0]
	for s, sh := range v.Shards {
		if !sh.Match && v.Match {
			v.Match, v.Mismatch = false, sh.Mismatch
		}
		v.Recorded = append(v.Recorded, recorded[s]...)
	}
	return v, nil
}

func compareFlips(recorded, replayed []Flip, prefixOK bool) (bool, string) {
	n := len(recorded)
	if len(replayed) < n {
		n = len(replayed)
	}
	for i := 0; i < n; i++ {
		if recorded[i] != replayed[i] {
			return false, fmt.Sprintf("flip %d: recorded %s, replayed %s", i, recorded[i], replayed[i])
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

// sess mirrors the daemon's per-session accounting.
type sess struct {
	sid   uint32
	name  string
	cores int
	app   *core.AppState // nil once unregistered

	pending    bool
	waitFrom   float64
	waitConvoy bool
	phaseStart float64

	res AppResult
}

// machine drives core.Arbiter through one target's replay. It mirrors
// internal/server's per-shard handle/arbitrate logic without the network.
type machine struct {
	arb    *core.Arbiter
	target string
	byID   map[uint32]*sess
	order  []*sess
	// active holds the sessions inside an access step — one under a
	// serializing policy, whoever overlaps under a permissive one — so that
	// accrue, which runs per event, visits them and not every session.
	active    []*sess
	now       float64
	recheckAt float64
	// verify: re-arbitrate at the recorded EvRechecks and collect the recorded
	// flips. A what-if machine ignores both and follows RecheckAfter instead.
	verify bool

	events   int
	recorded []Flip
	res      Result
}

// newMachine builds the replay of one stream, its flip log allocated for the
// given number of flips. A stream's waits bound what its replay can serve, so
// the wait log is allocated once.
func newMachine(pol core.Policy, stream shardEvents, flips int, verify bool) *machine {
	arb := core.NewArbiter(pol)
	arb.SetLogBound(0)
	return &machine{
		arb:       arb,
		target:    stream.Target,
		byID:      make(map[uint32]*sess),
		recheckAt: math.Inf(1),
		verify:    verify,
		res: Result{Policy: pol.Name(),
			Flips: make([]Flip, 0, flips), Waits: make([]float64, 0, stream.waits)},
	}
}

// activate moves a session whose Wait was just served into its access step.
func (m *machine) activate(s *sess) {
	if was := s.app.State(); s.app.Activate() == nil && was != core.Active {
		m.active = append(m.active, s)
	}
}

// deactivate drops a session that left its access step (released, ended its
// phase or went away) from the active list; a no-op for any other.
func (m *machine) deactivate(s *sess) {
	if i := slices.Index(m.active, s); i >= 0 {
		m.active = slices.Delete(m.active, i, i+1)
	}
}

func (m *machine) run(events []*trace.Event) error {
	for i, ev := range events {
		if err := m.step(ev); err != nil {
			return fmt.Errorf("replay: event %d (%s): %w", i, ev.Type, err)
		}
	}
	return nil
}

func (m *machine) step(ev *trace.Event) error {
	// The virtual clock never runs backwards: daemon traces are monotone by
	// construction; client-side captures may interleave slightly out of
	// order across connections and are clamped.
	t := ev.Time
	if t < m.now {
		t = m.now
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
	m.events++

	s := m.byID[ev.SID]
	if ev.Type != trace.EvRegister && ev.Type != trace.EvRecheck &&
		(s == nil || s.app == nil) {
		// A session the replay does not know (or that already left): a
		// client-side capture can record such skew; ignore.
		if ev.Type == trace.EvGrant || ev.Type == trace.EvRevoke {
			if m.verify {
				m.recorded = append(m.recorded, Flip{Time: t, SID: ev.SID, Target: m.target, Grant: ev.Type == trace.EvGrant})
			}
		}
		return nil
	}

	switch ev.Type {
	case trace.EvRegister:
		if s != nil && s.app != nil {
			return fmt.Errorf("duplicate sid %d", ev.SID)
		}
		app, err := m.arb.Register(ev.App, int(ev.Cores))
		if err != nil {
			return err
		}
		if s != nil {
			// A resumed session (the daemon's rebind records unregister +
			// register under the same sid): accounting continues in the same
			// sess, mirroring the daemon carrying its binding counters over.
			s.app = app
			app.Data = s
			return nil
		}
		s = &sess{sid: ev.SID, name: ev.App, cores: int(ev.Cores), app: app}
		app.Data = s
		m.byID[ev.SID] = s
		m.order = append(m.order, s)

	case trace.EvPrepare:
		s.app.Prepare(core.Info(ev.Info))

	case trace.EvComplete:
		_ = s.app.Complete() // only successful Completes are recorded

	case trace.EvInform:
		if ev.Bytes > 0 {
			s.app.Progress(ev.Bytes)
		}
		if s.app.Inform(t) {
			s.phaseStart = t
			s.res.Phases++
		}
		m.arbitrate(t)

	case trace.EvProgress:
		if ev.Bytes > 0 {
			s.app.Progress(ev.Bytes)
		}

	case trace.EvCheck:
		// State-free.

	case trace.EvWait:
		if s.app.State() == core.Idle || s.pending {
			return nil // client-capture skew; the daemon never records these
		}
		if s.app.Authorized() {
			m.activate(s)
			s.res.WaitsImmediate++
			s.res.Grants++
			m.res.GrantsServed++
			m.res.Waits = append(m.res.Waits, 0)
			return nil
		}
		s.pending = true
		s.waitFrom = t
		s.waitConvoy = m.arb.OtherAuthorized(s.app)

	case trace.EvRelease:
		if ev.Bytes > 0 {
			s.app.Progress(ev.Bytes)
		}
		// A session preempted since its grant has nothing to release, and
		// asking Release would format an error nobody reads.
		if s.app.State() == core.Active && s.app.Release() == nil {
			m.deactivate(s)
			m.arbitrate(t)
		}

	case trace.EvEnd:
		if s.pending {
			// The daemon fails a Wait pending under its own phase teardown.
			s.pending = false
			s.res.Aborted++
		}
		if s.app.State() != core.Idle {
			s.res.IOTimeS += t - s.phaseStart
		}
		s.app.End()
		m.deactivate(s)
		m.arbitrate(t)

	case trace.EvUnregister:
		if s.pending {
			s.pending = false
			s.res.Aborted++
		}
		wasBusy := s.app.State() != core.Idle
		if wasBusy {
			s.res.IOTimeS += t - s.phaseStart
		}
		m.arb.Unregister(s.app)
		s.app = nil
		m.deactivate(s)
		if !m.verify && wasBusy {
			// Mirrors the daemon's re-arbitration after a mid-phase session
			// vanished; in verify mode the recorded EvRecheck drives it.
			m.arbitrate(t)
		}

	case trace.EvRecheck:
		if m.verify {
			m.arbitrate(t)
		}

	case trace.EvGrant, trace.EvRevoke:
		if m.verify {
			m.recorded = append(m.recorded, Flip{Time: t, SID: ev.SID, Target: m.target, Grant: ev.Type == trace.EvGrant})
		}

	default:
		return fmt.Errorf("unhandled event type %d", ev.Type)
	}
	return nil
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
	for _, s := range m.active {
		s.res.ActiveS += dt
		s.res.StretchedActiveS += dt * float64(n)
	}
	m.res.OverlapS += dt * float64(n-1)
}

func (m *machine) arbitrate(t float64) {
	out := m.arb.Arbitrate(t)
	m.res.Arbitrations++
	m.recheckAt = math.Inf(1)
	if !out.Acted {
		return
	}
	for _, a := range out.Granted {
		s := a.Data.(*sess)
		m.res.Flips = append(m.res.Flips, Flip{Time: t, SID: s.sid, Target: m.target, Grant: true})
		if s.pending {
			m.activate(s) // the served Wait enters the access step
			d := t - s.waitFrom
			s.res.WaitS += d
			if s.waitConvoy {
				s.res.ConvoyWaitS += d
			} else {
				s.res.ProtocolWaitS += d
			}
			s.res.WaitsDeferred++
			s.res.Grants++
			m.res.GrantsServed++
			m.res.Waits = append(m.res.Waits, d)
			s.pending = false
		}
	}
	for _, a := range out.Revoked {
		s := a.Data.(*sess)
		m.res.Flips = append(m.res.Flips, Flip{Time: t, SID: s.sid, Target: m.target, Grant: false})
	}
	if out.RecheckAfter > 0 {
		m.recheckAt = t + out.RecheckAfter
	}
}

// finish closes the books: open phases and pending waits are censored at
// the final virtual-clock instant, per-session results are aggregated and
// sorted, and wait durations are sorted for percentile queries.
func (m *machine) finish() Result {
	for _, s := range m.order {
		if s.app != nil && s.app.State() != core.Idle {
			s.res.IOTimeS += m.now - s.phaseStart
		}
		if s.pending {
			d := m.now - s.waitFrom
			s.res.WaitS += d
			if s.waitConvoy {
				s.res.ConvoyWaitS += d
			} else {
				s.res.ProtocolWaitS += d
			}
			s.res.Unserved++
			m.res.Waits = append(m.res.Waits, d)
			s.pending = false
		}
		s.res.SID = s.sid
		s.res.Name = s.name
		s.res.Target = m.target
		s.res.Cores = s.cores
		m.res.Apps = append(m.res.Apps, s.res)

		m.res.WaitsImmediate += s.res.WaitsImmediate
		m.res.WaitsDeferred += s.res.WaitsDeferred
		m.res.TotalWaitS += s.res.WaitS
		m.res.ConvoyWaitS += s.res.ConvoyWaitS
		m.res.ProtocolWaitS += s.res.ProtocolWaitS
		m.res.Unserved += s.res.Unserved
		m.res.Aborted += s.res.Aborted
	}
	sort.Slice(m.res.Apps, func(i, j int) bool {
		if m.res.Apps[i].Name != m.res.Apps[j].Name {
			return m.res.Apps[i].Name < m.res.Apps[j].Name
		}
		return m.res.Apps[i].SID < m.res.Apps[j].SID
	})
	sort.Float64s(m.res.Waits)
	m.res.Events = m.events
	m.res.MakespanS = m.now
	return m.res
}

// Named pairs a display name with a policy for comparison runs.
type Named struct {
	Name   string
	Policy core.Policy
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
func Compare(tr *trace.Trace, policies []Named) (Comparison, error) {
	if len(policies) == 0 {
		return Comparison{}, fmt.Errorf("replay: no policies to compare")
	}
	basePol, err := RecordingPolicy(tr.Header)
	if err != nil {
		return Comparison{}, fmt.Errorf("replay: recording policy: %w", err)
	}
	if err := checkReplayable(tr); err != nil {
		return Comparison{}, err
	}
	// The baseline replay comes first; a candidate that is the recording
	// policy itself reuses it instead of re-arbitrating the whole trace.
	pols := append(make([]core.Policy, 0, 1+len(policies)), basePol)
	row := make([]int, len(policies)) // each candidate's place in pols
	for i, np := range policies {
		if np.Policy.Name() != basePol.Name() {
			row[i] = len(pols)
			pols = append(pols, np.Policy)
		}
	}
	// What makes a stream unreplayable does so under any policy, so an error
	// is the baseline's and carries no candidate's name.
	results, err := replayGrid(partition(tr), pols, nil)
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
	for i, np := range policies {
		res := results[row[i]]
		res.Policy = np.Name
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

// StandardPolicies builds the canonical comparison set for a trace: the
// three static policies always, plus the delay and dynamic policies when
// the header carries a performance model. overlap < 0 uses the header's
// recorded overlap (falling back to 0.5 when unset).
func StandardPolicies(hdr trace.Header, overlap float64) []Named {
	out := []Named{
		{Name: "fcfs", Policy: core.FCFSPolicy{}},
		{Name: "interrupt", Policy: core.InterruptPolicy{}},
		{Name: "interfere", Policy: core.InterferePolicy{}},
	}
	if m := Model(hdr); m != nil {
		if overlap < 0 {
			overlap = hdr.DelayOverlap
			if overlap == 0 {
				overlap = 0.5
			}
		}
		out = append(out,
			Named{Name: fmt.Sprintf("delay(%.2f)", overlap), Policy: core.DelayPolicy{Overlap: overlap, Model: m}},
			Named{Name: "dynamic(cpu-seconds)", Policy: core.DynamicPolicy{Metric: core.CPUSecondsWasted{}, Model: m, AllowInterfere: true}},
		)
	}
	return out
}
