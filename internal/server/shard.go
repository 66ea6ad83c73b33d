package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// binding is one session's coordination state on one storage target,
// guarded by that target's shard lock. It carries what the
// unsharded daemon kept per session: protocol state, the pending Wait, and
// the LASSi-style live accounting.
type binding struct {
	s   *session
	app *core.AppState
	sid uint32

	waitSeq    uint64 // Seq of the deferred Wait response; 0 = none pending
	waitFrom   float64
	waitConvoy bool  // deferred behind another authorized app (vs protocol)
	waitPos    int32 // Waits already parked on the target when this one was

	// grantAt/holding track the served grant currently outstanding, for the
	// hold-time histogram: set by serveGrant, cleared (and observed) at the
	// next release, end or revoke.
	grantAt float64
	holding bool

	phaseStart float64
	phases     int
	grants     uint64
	ioTime     float64
	waitTime   float64

	// Wait decomposition (see wire.AppStats): immediate vs deferred counts,
	// and deferred time split by what the wait was for.
	waitsImmediate uint64
	waitsDeferred  uint64
	convoyWait     float64
	protoWait      float64
}

// shard is one storage target's coordination domain: an arbiter from the
// server's ArbiterSet plus the target's bindings and counters, all behind
// mu. Whoever has work for the target — a connection's reader, the control
// goroutine, Drain, the recheck timer — locks the shard, runs the work to
// completion on its own goroutine and unlocks; nothing under the lock
// blocks. Tests and benchmarks driving Server.handle take the same path.
type shard struct {
	srv    *Server
	target string
	arb    *core.Arbiter

	// Resolved once at shard creation; nil when the server has no registry
	// or event log.
	m  *shardMetrics
	ev *obs.EventLog

	// inflight counts requests that have reached the shard and not finished:
	// one holding the lock, the rest waiting for it. A connection has at
	// most one request in flight (its reader runs it), so this is the
	// queue depth the overload signal needs without a queue. hot is the
	// brownout bit: set when inflight crosses shedHiWater, cleared once it
	// drains to shedLoWater. While set, advisory verbs are shed with the
	// retryable wire.CodeOverloaded instead of joining the wait.
	inflight atomic.Int32
	hot      atomic.Bool

	mu sync.Mutex
	// Guarded by mu. stopped is set at shutdown: nothing is dispatched (and
	// so nothing recorded to the trace) after Close returns.
	stopped      bool
	bindings     map[*session]*binding
	recheck      *time.Timer
	arbitrations uint64
	grantsServed uint64
	pending      int32 // Waits currently parked (mirrored to m.queueDepth)
	draining     bool  // Drain ran: pending Waits failed, new ones refused

	// Wait-decomposition counters of departed bindings, folded in by
	// detach, so the aggregates are cumulative like grantsServed (and like
	// offline replay's totals) rather than shrinking as sessions leave.
	goneWaitsImmediate uint64
	goneWaitsDeferred  uint64
	goneConvoyWait     float64
	goneProtoWait      float64
}

// DefaultMaxTargets is the default bound on distinct storage targets.
const DefaultMaxTargets = 256

// errTooManyTargets rejects requests that would grow the shard set past
// the configured bound.
var errTooManyTargets = errors.New("too many storage targets")

// shardFor returns the target's shard, creating it on first use — unless
// that would exceed the target bound. Safe for concurrent use by the
// connection reader goroutines.
func (srv *Server) shardFor(target string) (*shard, error) {
	srv.shmu.RLock()
	sh := srv.shards[target]
	srv.shmu.RUnlock()
	if sh != nil {
		return sh, nil
	}
	srv.shmu.Lock()
	defer srv.shmu.Unlock()
	if sh = srv.shards[target]; sh != nil {
		return sh, nil
	}
	max := srv.cfg.MaxTargets
	if max == 0 {
		max = DefaultMaxTargets
	}
	if max > 0 && len(srv.shards) >= max {
		return nil, errTooManyTargets
	}
	sh = &shard{
		srv:      srv,
		target:   target,
		arb:      srv.set.Get(target),
		bindings: make(map[*session]*binding),
		ev:       srv.cfg.Events,
	}
	select {
	case <-srv.stop:
		// Created during shutdown: shutdown's pass over the shard list may
		// already be over (it takes shmu after stop closes), so the shard is
		// born stopped and never dispatches.
		sh.stopped = true
	default:
	}
	if srv.cfg.Metrics != nil {
		sh.m = newShardMetrics(srv.cfg.Metrics, target)
	}
	srv.shards[target] = sh
	i := sort.Search(len(srv.shardList), func(i int) bool { return srv.shardList[i].target >= target })
	srv.shardList = append(srv.shardList, nil)
	copy(srv.shardList[i+1:], srv.shardList[i:])
	srv.shardList[i] = sh
	return sh, nil
}

// shardsSorted snapshots the shard list in target order.
func (srv *Server) shardsSorted() []*shard {
	srv.shmu.RLock()
	defer srv.shmu.RUnlock()
	return append([]*shard(nil), srv.shardList...)
}

// shed reports whether the shard is in brownout, updating the hysteresis
// bit from the current in-flight count. Called by reader goroutines before
// an advisory verb joins the wait for the lock; racing readers may briefly
// disagree near a water mark, which is harmless — every shed is
// individually retryable.
func (sh *shard) shed() bool {
	q := int(sh.inflight.Load())
	if sh.hot.Load() {
		if q <= shedLoWater {
			sh.hot.Store(false)
			return false
		}
		return true
	}
	if q >= shedHiWater {
		sh.hot.Store(true)
		return true
	}
	return false
}

// enter locks the shard for one piece of work. It returns false, with the
// lock released, once the shard has stopped; on true the caller does its
// work and unlocks.
func (sh *shard) enter() bool {
	sh.mu.Lock()
	if sh.stopped {
		sh.mu.Unlock()
		return false
	}
	return true
}

// serve runs one coordination request to completion on the calling
// goroutine, under the shard's lock; the clock is read under the lock too,
// so event times rise in the order the trace records them. Returns false
// when the shard has stopped.
func (sh *shard) serve(s *session, req wire.Request) bool {
	sh.inflight.Add(1)
	ok := sh.enter()
	if ok {
		if s.gone.Load() {
			s.replyGone(req.Seq, req.Target)
		} else {
			now := sh.srv.clock()
			s.touch(now)
			sh.handle(s, req, now)
		}
		sh.mu.Unlock()
	}
	// Clear a stale brownout once the pile-up has drained: readers only
	// re-evaluate the bit when an advisory verb arrives, so an idle daemon
	// would otherwise report overloaded forever.
	if sh.inflight.Add(-1) <= shedLoWater && sh.hot.Load() {
		sh.hot.Store(false)
	}
	return ok
}

// fireRecheck is the recheck timer's callback: the re-arbitration a policy
// asked for (delay's deferred decision), on the timer's goroutine.
func (sh *shard) fireRecheck() {
	if !sh.enter() {
		return
	}
	now := sh.srv.clock()
	sh.rec(trace.Event{Type: trace.EvRecheck, Time: now})
	sh.arbitrate(now)
	sh.mu.Unlock()
}

// handle processes one request under the shard's lock. It must stay
// panic-free for any request a client can send: protocol violations become
// error responses.
func (sh *shard) handle(s *session, req wire.Request, now float64) {
	b := sh.bindings[s]
	if b == nil {
		id := s.id.Load()
		if id == nil {
			sh.reply(nil, s, req.Seq, false, errors.New("not registered"))
			return
		}
		switch req.Type {
		case wire.TypePrepare, wire.TypeComplete, wire.TypeInform, wire.TypeProgress,
			wire.TypeCheck, wire.TypeWait, wire.TypeRelease, wire.TypeEnd:
			var err error
			if b, err = sh.attach(s, id, now); err != nil {
				sh.reply(nil, s, req.Seq, false, err)
				return
			}
		default:
			sh.reply(nil, s, req.Seq, false, fmt.Errorf("unknown request type %q", req.Type))
			return
		}
	}

	switch req.Type {
	case wire.TypePrepare:
		// The request's Info map is decode-fresh and never written after
		// this point, so recording it by reference is safe.
		sh.rec(trace.Event{Type: trace.EvPrepare, Time: now, SID: b.sid, Info: req.Info})
		b.app.Prepare(core.Info(req.Info))
		sh.reply(b, s, req.Seq, true, nil)

	case wire.TypeComplete:
		err := b.app.Complete()
		if err == nil {
			sh.rec(trace.Event{Type: trace.EvComplete, Time: now, SID: b.sid})
		}
		sh.reply(b, s, req.Seq, err == nil, err)

	case wire.TypeInform:
		sh.rec(trace.Event{Type: trace.EvInform, Time: now, SID: b.sid, Bytes: req.BytesDone})
		if req.BytesDone > 0 {
			b.app.Progress(req.BytesDone)
		}
		if b.app.Inform(now) {
			b.phaseStart = now
			b.phases++
		}
		sh.arbitrate(now)
		sh.reply(b, s, req.Seq, true, nil)

	case wire.TypeProgress:
		// State-free, like the simulator's Coordinator.Progress: records
		// progress without opening a phase or triggering arbitration (the
		// value rides into the next inform/release arbitration).
		sh.rec(trace.Event{Type: trace.EvProgress, Time: now, SID: b.sid, Bytes: req.BytesDone})
		if req.BytesDone > 0 {
			b.app.Progress(req.BytesDone)
		}
		sh.reply(b, s, req.Seq, true, nil)

	case wire.TypeCheck:
		sh.rec(trace.Event{Type: trace.EvCheck, Time: now, SID: b.sid})
		sh.reply(b, s, req.Seq, true, nil)

	case wire.TypeWait:
		if b.app.State() == core.Idle {
			sh.reply(b, s, req.Seq, false, fmt.Errorf("core: %s: Wait before Inform", b.app.Name()))
			return
		}
		if b.waitSeq != 0 {
			sh.reply(b, s, req.Seq, false, errors.New("wait already pending"))
			return
		}
		if sh.draining {
			// Never park a Wait on a daemon that is going away: the client
			// gets a retryable error now instead of hanging into teardown.
			s.send(wire.Response{Seq: req.Seq, Type: wire.TypeResp,
				Err: "draining: coordinator shutting down", Code: wire.CodeDraining,
				Authorized: b.app.Authorized(), Target: sh.target})
			return
		}
		sh.rec(trace.Event{Type: trace.EvWait, Time: now, SID: b.sid})
		if b.app.Authorized() {
			b.waitsImmediate++
			if sh.m != nil {
				sh.m.waitsImmediate.Inc()
				sh.m.waitSeconds.Observe(0)
			}
			if sh.ev != nil {
				sh.ev.Emit(obs.Event{Kind: obs.EvGrant, Time: now,
					App: b.app.Name(), Target: sh.target})
			}
			sh.serveGrant(b, req.Seq, now)
			return
		}
		b.waitSeq = req.Seq
		b.waitFrom = now
		b.waitConvoy = sh.arb.OtherAuthorized(b.app)
		b.waitPos = sh.pending
		s.pendingWaits.Add(1)
		sh.pending++
		if sh.m != nil {
			sh.m.queueDepth.Set(int64(sh.pending))
		}

	case wire.TypeRelease:
		// Recorded before the state-machine check: a failed Release still
		// applied the progress report, and replay mirrors exactly that.
		sh.rec(trace.Event{Type: trace.EvRelease, Time: now, SID: b.sid, Bytes: req.BytesDone})
		if req.BytesDone > 0 {
			b.app.Progress(req.BytesDone)
		}
		if err := b.app.Release(); err != nil {
			sh.reply(b, s, req.Seq, false, err)
			return
		}
		sh.endHold(b, now)
		sh.arbitrate(now)
		sh.reply(b, s, req.Seq, true, nil)

	case wire.TypeEnd:
		if b.waitSeq != 0 {
			// A pipelined client is tearing the phase down under its own
			// pending Wait. Fail that Wait now: once the app is Idle it is
			// invisible to arbitration, so the deferred response would
			// never come and the dangling waitSeq would shield the session
			// from idle eviction forever.
			s.send(wire.Response{Seq: b.waitSeq, Type: wire.TypeResp,
				Err: "wait cancelled: phase ended", Code: wire.CodeProtocol, Target: sh.target})
			b.waitSeq = 0
			sh.unpark(s)
		}
		sh.rec(trace.Event{Type: trace.EvEnd, Time: now, SID: b.sid})
		if b.app.State() != core.Idle {
			b.ioTime += now - b.phaseStart
		}
		sh.endHold(b, now)
		b.app.End()
		sh.arbitrate(now)
		sh.reply(b, s, req.Seq, true, nil)

	default:
		sh.reply(b, s, req.Seq, false, fmt.Errorf("unknown request type %q", req.Type))
	}
}

// attach creates the session's binding on this target: the lazy per-shard
// registration that takes the place of the unsharded daemon's register-time
// Arbiter.Register. The trace records it as this shard's EvRegister, so
// replay reproduces the shard's registration order exactly.
func (sh *shard) attach(s *session, id *ident, now float64) (*binding, error) {
	app, err := sh.arb.Register(id.name, id.cores)
	if err != nil {
		return nil, err
	}
	b := &binding{s: s, app: app, sid: id.sid}
	app.Data = b
	sh.bindings[s] = b
	sh.rec(trace.Event{Type: trace.EvRegister, Time: now, SID: id.sid,
		App: id.name, Cores: int32(id.cores)})
	return b, nil
}

// detach is a session leaving this target: accounting folds into the
// shard's cumulative counters and, if the session was mid-phase, the
// survivors are re-arbitrated — a vanished holder must not wedge the queue.
func (sh *shard) detach(s *session) {
	b := sh.bindings[s]
	if b == nil {
		return
	}
	delete(sh.bindings, s)
	sh.goneWaitsImmediate += b.waitsImmediate
	sh.goneWaitsDeferred += b.waitsDeferred
	sh.goneConvoyWait += b.convoyWait
	sh.goneProtoWait += b.protoWait
	if b.waitSeq != 0 {
		b.waitSeq = 0
		sh.unpark(s)
	}
	now := sh.srv.clock()
	wasBusy := b.app.State() != core.Idle
	sh.arb.Unregister(b.app)
	b.app = nil
	sh.rec(trace.Event{Type: trace.EvUnregister, Time: now, SID: b.sid})
	if wasBusy {
		// A vanished mid-phase holder re-arbitrates the survivors; the trace
		// records this as an explicit recheck so replay re-arbitrates at the
		// same instant.
		sh.rec(trace.Event{Type: trace.EvRecheck, Time: now})
		sh.arbitrate(now)
	}
}

// rebind moves a resumed session's coordination state on this target from
// the dead connection to the new one. Protocol state is reset — the open
// phase is abandoned exactly as if the app had vanished (unregister,
// re-arbitrate survivors) and the app re-registers under the same name and
// sid — because the client cannot know which of its in-flight verbs the old
// connection delivered; it re-drives prepare/inform/wait from its own
// journal, which is correct against a reset state and only against one.
// Cumulative accounting (phases, grants, I/O and wait time) carries over,
// so stats and the `agg:` rollups see one application, not two. In the
// trace this is EvUnregister + EvRegister (+ EvRecheck when mid-phase):
// existing event types, so replay needs no special case.
func (sh *shard) rebind(old, s *session) {
	ob := sh.bindings[old]
	if ob == nil {
		return
	}
	id := s.id.Load()
	now := sh.srv.clock()
	delete(sh.bindings, old)
	sh.goneWaitsImmediate += ob.waitsImmediate
	sh.goneWaitsDeferred += ob.waitsDeferred
	sh.goneConvoyWait += ob.convoyWait
	sh.goneProtoWait += ob.protoWait
	if ob.waitSeq != 0 {
		// The deferred Wait died with the old connection; the client will
		// re-issue it after the resume.
		ob.waitSeq = 0
		sh.unpark(old)
	}
	wasBusy := ob.app.State() != core.Idle
	ioTime := ob.ioTime
	if wasBusy {
		ioTime += now - ob.phaseStart
	}
	sh.arb.Unregister(ob.app)
	sh.rec(trace.Event{Type: trace.EvUnregister, Time: now, SID: ob.sid})
	app, err := sh.arb.Register(id.name, id.cores)
	if err != nil {
		// Unreachable: the name was unregistered two lines up. Degrade to a
		// plain detach; the client's next verb will attach afresh.
		if wasBusy {
			sh.rec(trace.Event{Type: trace.EvRecheck, Time: now})
			sh.arbitrate(now)
		}
		return
	}
	b := &binding{s: s, app: app, sid: ob.sid,
		phases: ob.phases, grants: ob.grants, ioTime: ioTime, waitTime: ob.waitTime}
	app.Data = b
	sh.bindings[s] = b
	sh.rec(trace.Event{Type: trace.EvRegister, Time: now, SID: ob.sid,
		App: id.name, Cores: int32(id.cores)})
	if wasBusy {
		sh.rec(trace.Event{Type: trace.EvRecheck, Time: now})
		sh.arbitrate(now)
	}
}

// drainWaits is the shard half of Server.Drain: every parked Wait is
// answered with a retryable draining error (in registration order, so the
// response sequence is deterministic), and the draining flag makes handle
// refuse to park any new ones.
func (sh *shard) drainWaits() {
	sh.draining = true
	failed := int32(0)
	for _, a := range sh.arb.Apps() {
		b, ok := a.Data.(*binding)
		if !ok || b.waitSeq == 0 {
			continue
		}
		b.s.send(wire.Response{Seq: b.waitSeq, Type: wire.TypeResp,
			Err: "draining: coordinator shutting down", Code: wire.CodeDraining,
			Authorized: b.app.Authorized(), Target: sh.target})
		b.waitSeq = 0
		sh.unpark(b.s)
		failed++
	}
	if sh.ev != nil {
		sh.ev.Emit(obs.Event{Kind: obs.EvDrain, Time: sh.srv.clock(),
			Target: sh.target, Queue: failed})
	}
}

// reply sends the response to one request. Every response reports the
// application's current authorization on this shard's target (Target
// echoed), so the client library can maintain its cached per-target Check
// state from the response stream alone.
func (sh *shard) reply(b *binding, s *session, seq uint64, ok bool, err error) {
	r := wire.Response{Seq: seq, Type: wire.TypeResp, OK: ok, Target: sh.target}
	if err != nil {
		r.Err = err.Error()
		r.Code = codeFor(err)
	}
	if b != nil && b.app != nil {
		r.Authorized = b.app.Authorized()
	}
	s.send(r)
}

// serveGrant answers a Wait — immediately or deferred — and accounts for
// the served grant in one place.
func (sh *shard) serveGrant(b *binding, seq uint64, now float64) {
	b.app.Activate()
	b.grants++
	sh.grantsServed++
	b.grantAt = now
	b.holding = true
	if sh.m != nil {
		sh.m.grants.Inc()
	}
	b.s.send(wire.Response{Seq: seq, Type: wire.TypeResp, OK: true, Authorized: true, Target: sh.target})
}

// unpark undoes one parked Wait's queue accounting (served, cancelled,
// drained, or departed with its session).
func (sh *shard) unpark(s *session) {
	s.pendingWaits.Add(-1)
	sh.pending--
	if sh.m != nil {
		sh.m.queueDepth.Set(int64(sh.pending))
	}
}

// endHold closes the binding's outstanding grant hold, observing its
// duration. A no-op unless a serveGrant is outstanding.
func (sh *shard) endHold(b *binding, now float64) {
	if !b.holding {
		return
	}
	b.holding = false
	if sh.m != nil {
		sh.m.holdSeconds.Observe(now - b.grantAt)
	}
}

// rec records one trace event when recording is enabled, stamped with this
// shard's target. It is safe on the hot path: a nil check plus a by-value
// channel send.
func (sh *shard) rec(ev trace.Event) {
	if sh.srv.cfg.Trace != nil {
		ev.Target = sh.target
		sh.srv.cfg.Trace.Record(ev)
	}
}

// arbitrate runs one arbitration round on this target and delivers
// authorization changes: a granted application with a pending Wait receives
// its deferred response (this is a served grant); other flips are pushed as
// grant/revoke notifications. Delivery happens in registration order, so a
// serialized per-target request order yields one exact response order.
func (sh *shard) arbitrate(now float64) {
	if sh.recheck != nil {
		sh.recheck.Stop()
		sh.recheck = nil
	}
	out := sh.arb.Arbitrate(now)
	sh.arbitrations++
	if sh.m != nil {
		sh.m.arbitrations.Inc()
	}
	if !out.Acted {
		return
	}
	for _, a := range out.Granted {
		b := a.Data.(*binding)
		sh.rec(trace.Event{Type: trace.EvGrant, Time: now, SID: b.sid})
		if b.waitSeq != 0 {
			d := now - b.waitFrom
			b.waitTime += d
			if b.waitConvoy {
				b.convoyWait += d
			} else {
				b.protoWait += d
			}
			b.waitsDeferred++
			if sh.m != nil {
				sh.m.waitsDeferred.Inc()
				sh.m.waitSeconds.Observe(d)
			}
			if sh.ev != nil {
				sh.ev.Emit(obs.Event{Kind: obs.EvGrant, Time: now,
					App: b.app.Name(), Target: sh.target, WaitS: d,
					Queue: b.waitPos, Deferred: true, Convoy: b.waitConvoy})
			}
			seq := b.waitSeq
			b.waitSeq = 0
			sh.unpark(b.s)
			sh.serveGrant(b, seq, now)
		} else {
			b.s.send(wire.Response{Type: wire.TypeGrant, Authorized: true, Target: sh.target})
		}
	}
	for _, a := range out.Revoked {
		b := a.Data.(*binding)
		sh.rec(trace.Event{Type: trace.EvRevoke, Time: now, SID: b.sid})
		sh.endHold(b, now)
		if sh.m != nil {
			sh.m.revokes.Inc()
		}
		if sh.ev != nil {
			sh.ev.Emit(obs.Event{Kind: obs.EvRevoke, Time: now,
				App: b.app.Name(), Target: sh.target})
		}
		b.s.send(wire.Response{Type: wire.TypeRevoke, Target: sh.target})
	}
	if out.RecheckAfter > 0 {
		sh.recheck = time.AfterFunc(secondsToDuration(out.RecheckAfter), sh.fireRecheck)
	}
}

func secondsToDuration(s float64) time.Duration {
	if s > math.MaxInt64/float64(time.Second) {
		return math.MaxInt64
	}
	return time.Duration(s * float64(time.Second))
}
