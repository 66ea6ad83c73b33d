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

// binding is one session's place on one storage target, guarded by that
// target's shard lock: its core.AppState, with the LASSi-style live
// accounting in a core.Ledger, and what the daemon needs to answer and time
// its Waits.
type binding struct {
	s   *session
	app *core.AppState
	sid uint32

	waitSeq uint64 // Seq to answer the parked Wait with
	waitPos int32  // Waits already parked on the target when it parked

	// grantAt/holding track the served grant currently outstanding, for the
	// hold-time histogram: set by serveGrant, cleared (and observed) at the
	// next release, end or revoke.
	grantAt float64
	holding bool
}

// shard hosts one storage target's core.Domain, over an arbiter of its own,
// with the target's bindings, counters, trace records, recheck timer and
// latest decision, all behind its gate. Whoever has work for the target —
// a connection's reader, control-plane work under the control lock, Drain,
// the recheck timer — locks the shard, runs the work to completion on its
// own goroutine and unlocks; nothing under the lock blocks or takes the
// control lock. Tests and benchmarks driving Server.handle take the same
// path.
type shard struct {
	srv    *Server
	target string
	dom    *core.Domain

	// Resolved once at shard creation; nil when the server has no registry
	// or event log.
	m  *shardMetrics
	ev *obs.EventLog

	// The lock; stopped, set at shutdown, so nothing is dispatched (and so
	// nothing recorded to the trace) after Close returns; and the brownout
	// under which advisory verbs are shed instead of joining the wait.
	gate
	// Guarded by mu.
	bindings map[*session]*binding
	// recheck is created at the first deferred decision, with fireRecheck
	// bound once, and re-armed in place after, so arbitration allocates
	// no timer.
	recheck  *time.Timer
	pending  int32 // Waits currently parked (mirrored to m.queueDepth)
	draining bool  // Drain ran: pending Waits failed, new ones refused

	// gone holds the ledgers of departed bindings, folded in by detach, so
	// the aggregates are cumulative (like offline replay's totals) rather
	// than shrinking as sessions leave.
	gone core.Ledger

	// last is the latest decision that acted, for stats (its Policy left
	// empty), once decided; every decision reuses its Allowed slice.
	last    core.DecisionRecord
	decided bool
}

// maxTargets bounds the distinct storage targets (shards, each an arbiter
// plus its bindings) the daemon creates, so a client cannot grow the shard
// set without limit.
const maxTargets = 256

// errTooManyTargets rejects requests that would grow the shard set past
// maxTargets.
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
	if len(srv.shards) >= maxTargets {
		return nil, errTooManyTargets
	}
	sh = &shard{
		srv:      srv,
		target:   target,
		dom:      core.NewDomain(core.NewArbiter(srv.cfg.Policy)),
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
	sh.rearbitrate(true, sh.srv.clock())
	sh.mu.Unlock()
}

// handle processes one request of a registered session (Server.handle
// answers the others) under the shard's lock: the Domain applies the verb,
// and handle records it, answers it and runs the arbitration it asks for.
// It must stay panic-free for any request a client can send: protocol
// violations become error responses.
func (sh *shard) handle(s *session, req wire.Request, now float64) {
	b := sh.bindings[s]
	if b == nil {
		switch req.Type {
		case wire.TypePrepare, wire.TypeComplete, wire.TypeInform, wire.TypeProgress,
			wire.TypeCheck, wire.TypeWait, wire.TypeRelease, wire.TypeEnd:
			var err error
			if b, err = sh.attach(s, new(core.AppState), now); err != nil {
				sh.reply(nil, s, req.Seq, err)
				return
			}
		default:
			sh.reply(nil, s, req.Seq, fmt.Errorf("unknown request type %q", req.Type))
			return
		}
	}
	d, a := sh.dom, b.app

	switch req.Type {
	case wire.TypePrepare:
		// The request's Info map is decode-fresh and never written after
		// this point, so recording it by reference is safe.
		sh.rec(trace.Event{Type: trace.EvPrepare, Time: now, SID: b.sid, Info: req.Info})
		a.Prepare(core.ParseInfo(req.Info))
		sh.reply(b, s, req.Seq, nil)

	case wire.TypeComplete:
		err := a.Complete().Err()
		if err == nil {
			sh.rec(trace.Event{Type: trace.EvComplete, Time: now, SID: b.sid})
		}
		sh.reply(b, s, req.Seq, err)

	case wire.TypeInform:
		sh.rec(trace.Event{Type: trace.EvInform, Time: now, SID: b.sid, Bytes: req.BytesDone})
		sh.settle(d.Inform(now, a, req.BytesDone), now)
		sh.reply(b, s, req.Seq, nil)

	case wire.TypeProgress:
		sh.rec(trace.Event{Type: trace.EvProgress, Time: now, SID: b.sid, Bytes: req.BytesDone})
		a.Progress(req.BytesDone)
		sh.reply(b, s, req.Seq, nil)

	case wire.TypeCheck:
		sh.rec(trace.Event{Type: trace.EvCheck, Time: now, SID: b.sid})
		sh.reply(b, s, req.Seq, nil)

	case wire.TypeWait:
		// Never park a Wait on a daemon that is going away: the client gets
		// a retryable error now instead of hanging into teardown.
		e := d.Wait(now, a, sh.draining)
		if err := e.Violation.Err(); err != nil {
			sh.reply(b, s, req.Seq, err)
			return
		}
		if e.Refused {
			sh.refuse(b, req.Seq)
			return
		}
		sh.rec(trace.Event{Type: trace.EvWait, Time: now, SID: b.sid})
		if e.Served {
			sh.serveGrant(b, req.Seq, now, 0, false, false)
			return
		}
		b.waitSeq, b.waitPos = req.Seq, sh.pending
		sh.park(s, 1)

	case wire.TypeRelease:
		// Recorded before the state-machine check: a failed Release still
		// applied the progress report, and replay mirrors exactly that.
		sh.rec(trace.Event{Type: trace.EvRelease, Time: now, SID: b.sid, Bytes: req.BytesDone})
		e := d.Release(a, req.BytesDone)
		if err := e.Violation.Err(); err != nil {
			sh.reply(b, s, req.Seq, err)
			return
		}
		sh.endHold(b, now)
		sh.settle(e, now)
		sh.reply(b, s, req.Seq, nil)

	case wire.TypeEnd:
		e := d.End(now, a)
		if e.Cancelled {
			// A pipelined client tore the phase down under its own pending
			// Wait: fail that Wait now, or it would never be answered and
			// would shield the session from idle eviction forever.
			s.send(wire.Response{Seq: b.waitSeq, Type: wire.TypeResp,
				Err: "wait cancelled: phase ended", Code: wire.CodeProtocol, Target: sh.target})
			sh.park(s, -1)
		}
		sh.rec(trace.Event{Type: trace.EvEnd, Time: now, SID: b.sid})
		sh.endHold(b, now)
		sh.settle(e, now)
		sh.reply(b, s, req.Seq, nil)

	default:
		sh.reply(b, s, req.Seq, fmt.Errorf("unknown request type %q", req.Type))
	}
}

// attach joins a to this target's domain as the session's binding — the
// lazy per-shard registration, or a rebind's second half — recorded as this
// shard's EvRegister, so replay reproduces its registration order exactly.
func (sh *shard) attach(s *session, a *core.AppState, now float64) (*binding, error) {
	id := s.id.Load()
	if err := sh.dom.Join(a, id.name, id.cores); err != nil {
		return nil, err
	}
	b := &binding{s: s, app: a, sid: id.sid}
	a.Data = b
	sh.bindings[s] = b
	sh.rec(trace.Event{Type: trace.EvRegister, Time: now, SID: id.sid,
		App: id.name, Cores: int32(id.cores)})
	return b, nil
}

// detach is a session leaving this target: its ledger folds into the
// shard's cumulative one, and a departure mid-phase re-arbitrates.
func (sh *shard) detach(s *session) {
	b := sh.bindings[s]
	if b == nil {
		return
	}
	now := sh.srv.clock()
	busy := sh.retire(s, b, now)
	sh.gone.Add(b.app.Ledger())
	sh.rearbitrate(busy, now)
}

// rebind moves a resumed session's coordination state on this target from
// the dead connection to the new one: its app leaves the domain, as if it
// had vanished, and joins again under the same name and sid, keeping its
// ledger. The protocol state resets because the client cannot know which
// of its in-flight verbs the old connection delivered; it re-drives
// prepare/inform/wait (a deferred Wait died with the old connection) from
// its own journal. In the trace this is EvUnregister + EvRegister (+
// EvRecheck when mid-phase), so replay needs no special case.
func (sh *shard) rebind(old, s *session) {
	ob := sh.bindings[old]
	if ob == nil {
		return
	}
	now := sh.srv.clock()
	busy := sh.retire(old, ob, now)
	// The app left just above, so its name is free and the join cannot
	// fail; if it did, this degrades to a plain detach and the next verb
	// attaches afresh.
	sh.attach(s, ob.app, now)
	sh.rearbitrate(busy, now)
}

// retire removes a departing binding at now: its app leaves the domain and
// a parked Wait unparks. It reports whether the binding left mid-phase.
func (sh *shard) retire(s *session, b *binding, now float64) (busy bool) {
	delete(sh.bindings, s)
	e := sh.dom.Leave(now, b.app)
	if e.Cancelled {
		sh.park(s, -1)
	}
	sh.rec(trace.Event{Type: trace.EvUnregister, Time: now, SID: b.sid})
	return e.Arbitrate
}

// settle runs the arbitration a verb's Effect asks for.
func (sh *shard) settle(e core.Effect, now float64) {
	if e.Arbitrate {
		sh.arbitrate(now)
	}
}

// rearbitrate re-arbitrates when busy — after a binding left mid-phase, or
// at the policy's recheck — as a recheck the trace records for replay.
func (sh *shard) rearbitrate(busy bool, now float64) {
	if busy {
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
	for _, a := range sh.dom.Arbiter().Apps() {
		if !sh.dom.Cancel(a) {
			continue
		}
		b := a.Data.(*binding)
		sh.refuse(b, b.waitSeq)
		sh.park(b.s, -1)
		failed++
	}
	if sh.ev != nil {
		sh.ev.Emit(obs.Event{Kind: obs.EvDrain, Time: sh.srv.clock(),
			Target: sh.target, Queue: failed})
	}
}

// refuse answers a Wait with the retryable draining error.
func (sh *shard) refuse(b *binding, seq uint64) {
	b.s.send(wire.Response{Seq: seq, Type: wire.TypeResp, Err: "draining: coordinator shutting down",
		Code: wire.CodeDraining, Authorized: b.app.Authorized(), Target: sh.target})
}

// reply sends the response to one request. Every response reports the
// application's current authorization on this shard's target (Target
// echoed), so the client library can maintain its cached per-target Check
// state from the response stream alone.
func (sh *shard) reply(b *binding, s *session, seq uint64, err error) {
	r := wire.Response{Seq: seq, Type: wire.TypeResp, OK: err == nil, Target: sh.target}
	if err != nil {
		r.Err = err.Error()
		r.Code = codeFor(err)
	}
	if b != nil {
		r.Authorized = b.app.Authorized()
	}
	s.send(r)
}

// serveGrant answers a Wait the Domain served — immediately, or deferred
// after waiting for waited seconds — and accounts for the served grant in
// one place.
func (sh *shard) serveGrant(b *binding, seq uint64, now, waited float64, deferred, convoy bool) {
	b.grantAt = now
	b.holding = true
	if sh.m != nil {
		sh.m.waitSeconds.Observe(waited)
	}
	if sh.ev != nil {
		ev := obs.Event{Kind: obs.EvGrant, Time: now, App: b.app.Name(), Target: sh.target}
		if deferred {
			ev.WaitS, ev.Queue, ev.Deferred, ev.Convoy = waited, b.waitPos, true, convoy
		}
		sh.ev.Emit(ev)
	}
	b.s.send(wire.Response{Seq: seq, Type: wire.TypeResp, OK: true, Authorized: true, Target: sh.target})
}

// park counts n Waits parked, or -n unparked, in the queue accounting.
func (sh *shard) park(s *session, n int32) {
	s.pendingWaits.Add(n)
	sh.pending += n
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
	}
	dec := sh.dom.Arbitrate(now)
	if dec.Acted {
		sh.last = core.DecisionRecord{Time: now, Allowed: sh.dom.Arbiter().AppendAllowed(sh.last.Allowed[:0]), Reason: dec.Reason}
		sh.decided = true
	}
	for _, a := range dec.Granted {
		b := a.Data.(*binding)
		sh.rec(trace.Event{Type: trace.EvGrant, Time: now, SID: b.sid})
		if a.Parked() {
			d, convoy := sh.dom.Serve(now, a)
			sh.park(b.s, -1)
			sh.serveGrant(b, b.waitSeq, now, d, true, convoy)
		} else {
			b.s.send(wire.Response{Type: wire.TypeGrant, Authorized: true, Target: sh.target})
		}
	}
	for _, a := range dec.Revoked {
		b := a.Data.(*binding)
		sh.rec(trace.Event{Type: trace.EvRevoke, Time: now, SID: b.sid})
		sh.endHold(b, now)
		if sh.m != nil {
			sh.m.revokes.Inc()
		}
		if sh.ev != nil {
			sh.ev.Emit(obs.Event{Kind: obs.EvRevoke, Time: now,
				App: a.Name(), Target: sh.target})
		}
		b.s.send(wire.Response{Type: wire.TypeRevoke, Target: sh.target})
	}
	if dec.RecheckAfter > 0 {
		// A callback that already fired still waits for the lock and
		// re-arbitrates; Reset only schedules the next one.
		d := secondsToDuration(dec.RecheckAfter)
		if sh.recheck == nil {
			sh.recheck = time.AfterFunc(d, sh.fireRecheck)
		} else {
			sh.recheck.Reset(d)
		}
	}
}

func secondsToDuration(s float64) time.Duration {
	if s > math.MaxInt64/float64(time.Second) {
		return math.MaxInt64
	}
	return time.Duration(s * float64(time.Second))
}
