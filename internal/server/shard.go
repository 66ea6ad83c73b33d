package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// binding is one session's coordination state on one storage target,
// guarded by that target's shard lock: protocol state, and the LASSi-style
// live accounting in a core.Ledger, which also says whether a Wait is
// parked.
type binding struct {
	s   *session
	app *core.AppState
	sid uint32
	led core.Ledger

	waitSeq uint64 // Seq to answer the parked Wait with
	waitPos int32  // Waits already parked on the target when it parked

	// grantAt/holding track the served grant currently outstanding, for the
	// hold-time histogram: set by serveGrant, cleared (and observed) at the
	// next release, end or revoke.
	grantAt float64
	holding bool
}

// shard is one storage target's coordination domain: an arbiter from the
// server's ArbiterSet plus the target's bindings and counters, all behind
// its gate. Whoever has work for the target — a connection's reader,
// control-plane work under the control lock, Drain, the recheck timer —
// locks the shard, runs the work to completion on its own goroutine and
// unlocks; nothing under the lock blocks or takes the control lock. Tests
// and benchmarks driving Server.handle take the same path.
type shard struct {
	srv    *Server
	target string
	arb    *core.Arbiter

	// Resolved once at shard creation; nil when the server has no registry
	// or event log.
	m  *shardMetrics
	ev *obs.EventLog

	// The lock; stopped, set at shutdown, so nothing is dispatched (and so
	// nothing recorded to the trace) after Close returns; and the brownout
	// under which advisory verbs are shed instead of joining the wait.
	gate
	// Guarded by mu.
	bindings     map[*session]*binding
	recheck      *time.Timer
	arbitrations uint64
	grantsServed uint64
	pending      int32 // Waits currently parked (mirrored to m.queueDepth)
	draining     bool  // Drain ran: pending Waits failed, new ones refused

	// gone holds the ledgers of departed bindings, folded in by detach, so
	// the aggregates are cumulative like grantsServed (and like offline
	// replay's totals) rather than shrinking as sessions leave.
	gone core.Ledger
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
		// Drain sets the flag before it lists the shards to drain, so a
		// shard its list misses reads it here and is born draining.
		draining: srv.draining.Load(),
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
	sh.leave()
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

// handle processes one request of a registered session (Server.handle
// answers the others) under the shard's lock. It must stay panic-free for
// any request a client can send: protocol violations become error responses.
func (sh *shard) handle(s *session, req wire.Request, now float64) {
	b := sh.bindings[s]
	if b == nil {
		switch req.Type {
		case wire.TypePrepare, wire.TypeComplete, wire.TypeInform, wire.TypeProgress,
			wire.TypeCheck, wire.TypeWait, wire.TypeRelease, wire.TypeEnd:
			var err error
			if b, err = sh.attach(s, s.id.Load(), now); err != nil {
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
		b.app.Prepare(core.ParseInfo(req.Info))
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
		b.led.Inform(b.app, now)
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
		if b.led.Parked() {
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
		if b.led.Wait(b.app, now) {
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
		if b.led.Close(b.app, now) {
			// A pipelined client is tearing the phase down under its own
			// pending Wait. Fail that Wait now: once the app is Idle it is
			// invisible to arbitration, so the deferred response would
			// never come and the parked Wait would shield the session from
			// idle eviction forever.
			s.send(wire.Response{Seq: b.waitSeq, Type: wire.TypeResp,
				Err: "wait cancelled: phase ended", Code: wire.CodeProtocol, Target: sh.target})
			sh.unpark(s)
		}
		sh.rec(trace.Event{Type: trace.EvEnd, Time: now, SID: b.sid})
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

// detach is a session leaving this target: its ledger folds into the
// shard's cumulative one and, if the session was mid-phase, the survivors
// are re-arbitrated — a vanished holder must not wedge the queue.
func (sh *shard) detach(s *session) {
	b := sh.bindings[s]
	if b == nil {
		return
	}
	now := sh.srv.clock()
	wasBusy := b.app.State() != core.Idle
	sh.retire(s, b, now)
	sh.gone.Add(&b.led)
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
// The whole ledger carries over, so stats and the `agg:` rollups see one
// application, not two. In the trace this is EvUnregister + EvRegister
// (+ EvRecheck when mid-phase): existing event types, so replay needs no
// special case.
func (sh *shard) rebind(old, s *session) {
	ob := sh.bindings[old]
	if ob == nil {
		return
	}
	id := s.id.Load()
	now := sh.srv.clock()
	// A deferred Wait died with the old connection; the client re-issues it
	// after the resume.
	wasBusy := ob.app.State() != core.Idle
	sh.retire(old, ob, now)
	sh.arb.Unregister(ob.app)
	sh.rec(trace.Event{Type: trace.EvUnregister, Time: now, SID: ob.sid})
	// The name was unregistered just above, so Register cannot fail; if it
	// did, this degrades to a plain detach and the next verb attaches afresh.
	if app, err := sh.arb.Register(id.name, id.cores); err == nil {
		b := &binding{s: s, app: app, sid: ob.sid, led: ob.led}
		app.Data = b
		sh.bindings[s] = b
		sh.rec(trace.Event{Type: trace.EvRegister, Time: now, SID: ob.sid,
			App: id.name, Cores: int32(id.cores)})
	}
	if wasBusy {
		sh.rec(trace.Event{Type: trace.EvRecheck, Time: now})
		sh.arbitrate(now)
	}
}

// retire removes a departing binding: its ledger closes at now and its
// parked Wait, if any, unparks.
func (sh *shard) retire(s *session, b *binding, now float64) {
	delete(sh.bindings, s)
	if b.led.Close(b.app, now) {
		sh.unpark(s)
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
		if !ok || !b.led.Cancel() {
			continue
		}
		b.s.send(wire.Response{Seq: b.waitSeq, Type: wire.TypeResp,
			Err: "draining: coordinator shutting down", Code: wire.CodeDraining,
			Authorized: b.app.Authorized(), Target: sh.target})
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
// shard's target. It is safe on the hot path: a nil check plus a copy into
// the writer's current chunk under its leaf mutex, which nests inside the
// shard lock.
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
		if b.led.Parked() {
			d, convoy := b.led.Serve(now)
			if sh.m != nil {
				sh.m.waitsDeferred.Inc()
				sh.m.waitSeconds.Observe(d)
			}
			if sh.ev != nil {
				sh.ev.Emit(obs.Event{Kind: obs.EvGrant, Time: now,
					App: b.app.Name(), Target: sh.target, WaitS: d,
					Queue: b.waitPos, Deferred: true, Convoy: convoy})
			}
			sh.unpark(b.s)
			sh.serveGrant(b, b.waitSeq, now)
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
