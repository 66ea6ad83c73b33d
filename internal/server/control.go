package server

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The brownout water marks. A lock enters brownout when its count of
// requests in flight reaches shedHiWater (advisory requests are answered
// with the retryable wire.CodeOverloaded instead of joining the wait) and
// exits only once the count has drained to shedLoWater — hysteresis wide
// enough that a count oscillating near one mark cannot flap the bit.
const (
	shedHiWater = 192
	shedLoWater = 64
)

// brownout is a lock's overload signal. There is no queue to measure, so
// inflight counts the requests that have reached the lock and not finished:
// one holding it, the rest waiting for it. A connection has at most one
// request in flight (its reader runs it), so the count is the number of
// connections piled up on the lock. hot is the brownout bit.
type brownout struct {
	inflight atomic.Int32
	hot      atomic.Bool
}

// shed reports whether the lock is in brownout, updating the hysteresis bit
// from the current count. Called by reader goroutines before an advisory
// request joins the wait for the lock; racing readers may briefly disagree
// near a water mark, which is harmless — every shed is individually
// retryable.
func (b *brownout) shed() bool {
	q := int(b.inflight.Load())
	if b.hot.Load() {
		if q <= shedLoWater {
			b.hot.Store(false)
			return false
		}
		return true
	}
	if q >= shedHiWater {
		b.hot.Store(true)
		return true
	}
	return false
}

// leave ends one request's stay. The request whose departure drains the
// count clears a stale brownout: readers only re-evaluate the bit when an
// advisory request arrives, so an idle daemon would otherwise report
// overloaded forever.
func (b *brownout) leave() {
	if b.inflight.Add(-1) <= shedLoWater && b.hot.Load() {
		b.hot.Store(false)
	}
}

// gate is a lock that work runs to completion under: one per shard, and one
// for the control plane. Whoever has work takes the lock on its own
// goroutine, does the work and unlocks; nothing under the lock blocks.
type gate struct {
	mu sync.Mutex
	// stopped is set under mu at shutdown: work that gets the lock
	// afterwards leaves without acting.
	stopped bool
	brownout
}

// enter locks the gate for one piece of work. It returns false, with the
// lock released, once the gate has stopped; on true the caller does its
// work and unlocks.
func (g *gate) enter() bool {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return false
	}
	return true
}

// control runs a register or stats request to completion under the control
// lock on the calling goroutine, counted in flight like a shard's requests.
// Returns false when the control plane has stopped.
func (srv *Server) control(s *session, req wire.Request) bool {
	if req.Type == wire.TypeStats && srv.ctl.shed() {
		if srv.m != nil {
			srv.m.statsSheds.Inc()
		}
		srv.shedReply(s, req.Seq, req.Type, req.Target, srv.clock())
		return true
	}
	srv.ctl.inflight.Add(1)
	defer srv.ctl.leave()
	if !srv.ctl.enter() {
		return false
	}
	defer srv.ctl.mu.Unlock()
	if s.gone.Load() {
		s.replyGone(req.Seq, req.Target)
		return true
	}
	now := srv.clock()
	s.touch(now)
	if req.Type == wire.TypeRegister {
		srv.register(s, req, now)
	} else {
		st := srv.snapshot(now)
		s.send(wire.Response{Seq: req.Seq, Type: wire.TypeResp, OK: true, Stats: &st})
	}
	return true
}

// open adds a new stream's session to the control plane and arms its
// register deadline. It returns false once the control plane has stopped:
// the session was never adopted and the caller owns the connection's
// teardown.
func (srv *Server) open(s *session) bool {
	if !srv.ctl.enter() {
		return false
	}
	defer srv.ctl.mu.Unlock()
	srv.sessions[s] = struct{}{}
	s.touch(srv.clock())
	if d := srv.cfg.HandshakeTimeout; d > 0 {
		s.handshake = time.AfterFunc(d, func() { srv.handshakeExpired(s) })
	}
	return true
}

// handshakeExpired is a session's register deadline: if it still has no
// identity, the slow-loris connection is dropped. A register disarms the
// timer, but a firing racing the disarm can still get here — the identity
// check makes it a no-op then.
func (srv *Server) handshakeExpired(s *session) {
	if !srv.ctl.enter() {
		return
	}
	defer srv.ctl.mu.Unlock()
	if s.gone.Load() || s.id.Load() != nil {
		return
	}
	if srv.m != nil {
		srv.m.handshakeTimeouts.Inc()
	}
	srv.logf("calciomd: dropping unregistered connection: handshake timeout")
	srv.drop(s, "handshake timeout")
}

// graceExpired is a limbo session's grace deadline. A resume stops the
// timer, but a firing racing the stop can still get here — the limbo check
// makes it a no-op then (resume cleared it).
func (srv *Server) graceExpired(s *session) {
	if !srv.ctl.enter() {
		return
	}
	defer srv.ctl.mu.Unlock()
	if s.gone.Load() || !s.limbo {
		return
	}
	srv.cfg.Events.Emit(obs.Event{Kind: obs.EvGraceExpire, Time: srv.clock(), App: s.name()})
	srv.drop(s, "grace expired")
}

// register assigns the session its identity: name (globally unique across
// live sessions), cores, trace sid and default target. No arbiter learns
// about the application yet — each target's shard attaches it lazily on the
// session's first coordination request there, so registration order within
// a shard is its attach order (which is also what the trace records).
//
// A register naming an app the daemon already knows is a resume attempt
// when it carries a strictly higher incarnation: the old session — in its
// grace window after a disconnect, or a half-open zombie the client gave up
// on — is superseded and every shard moves its coordination accounting to
// the new connection. The client is expected to re-drive its protocol state
// (prepare/inform/wait) afterwards; the shard resets it at rebind, so
// resumed state is identical whether or not the daemon kept anything.
// Under the control lock.
func (srv *Server) register(s *session, req wire.Request, now float64) {
	if id := s.id.Load(); id != nil {
		s.replyCode(req.Seq, wire.CodeProtocol, fmt.Errorf("already registered as %s", id.name), req.Target)
		return
	}
	if req.App == "" {
		s.replyCode(req.Seq, wire.CodeProtocol, errors.New("server: empty application name"), req.Target)
		return
	}
	// The arbiter takes the core count whole and the trace records it as
	// an int32: a count the two would read differently, or a negative one,
	// is refused on the fresh and the resume path alike.
	if req.Cores < 0 || req.Cores > math.MaxInt32 {
		s.replyCode(req.Seq, wire.CodeProtocol, fmt.Errorf("server: cores %d out of range [0, %d]", req.Cores, math.MaxInt32), req.Target)
		return
	}
	if old, dup := srv.names[req.App]; dup {
		oldInc := uint64(0)
		if oid := old.id.Load(); oid != nil {
			oldInc = oid.incarnation
		}
		switch {
		case req.Incarnation == 0:
			s.replyCode(req.Seq, wire.CodeDuplicate, fmt.Errorf("server: duplicate application %q", req.App), req.Target)
		case req.Incarnation <= oldInc:
			s.replyCode(req.Seq, wire.CodeStaleIncarnation,
				fmt.Errorf("server: application %q resumed by incarnation %d, rejecting %d",
					req.App, oldInc, req.Incarnation), req.Target)
		default:
			srv.resume(s, old, req)
		}
		return
	}
	// Admission control: the bound gates only fresh names (the resume path
	// above replaces a session rather than adding one), and the reply is
	// the retryable CodeBusy — capacity frees as sessions end or are
	// evicted, so the client backs off instead of failing.
	if max := srv.cfg.MaxSessions; max > 0 && len(srv.names) >= max {
		if srv.m != nil {
			srv.m.busyRejects.Inc()
		}
		srv.cfg.Events.Emit(obs.Event{Kind: obs.EvBusy, Time: now, App: req.App})
		s.replyCode(req.Seq, wire.CodeBusy,
			fmt.Errorf("server: at session limit %d, try again later", max), req.Target)
		return
	}
	srv.sidSeq++
	id := &ident{name: req.App, cores: req.Cores, sid: srv.sidSeq,
		defTarget: req.Target, incarnation: req.Incarnation}
	srv.names[req.App] = s
	s.id.Store(id)
	s.disarmHandshake()
	// Incarnation > 1 on a fresh name is still a resume from the client's
	// point of view: its earlier incarnation registered with a daemon that
	// has since restarted.
	srv.foldDegraded(req, req.Incarnation > 1)
	srv.cfg.Events.Emit(obs.Event{Kind: obs.EvRegister, Time: now, App: req.App,
		Target: req.Target, Incarnation: req.Incarnation})
	s.reply(req.Seq, nil, req.Target)
}

// resume supersedes old with s: the name, trace sid and per-target
// accounting move to the new connection; the old session is torn down. Every
// shard is rebound before the register reply is sent, so by the time the
// client's next coordination frame reaches a shard the binding is already
// its.
func (srv *Server) resume(s, old *session, req wire.Request) {
	oid := old.id.Load()
	id := &ident{name: req.App, cores: req.Cores, sid: oid.sid,
		defTarget: req.Target, incarnation: req.Incarnation}
	srv.names[req.App] = s
	s.id.Store(id)
	s.disarmHandshake()
	if old.graceTimer != nil {
		old.graceTimer.Stop()
		old.graceTimer = nil
	}
	old.limbo = false
	old.gone.Store(true)
	delete(srv.sessions, old)
	for _, sh := range srv.shardsSorted() {
		if sh.enter() {
			sh.rebind(old, s)
			sh.mu.Unlock()
		}
	}
	old.teardown()
	srv.foldDegraded(req, true)
	srv.cfg.Events.Emit(obs.Event{Kind: obs.EvResume, Time: srv.clock(),
		App: req.App, Incarnation: req.Incarnation})
	srv.logf("calciomd: %s: resumed (incarnation %d)", req.App, req.Incarnation)
	s.reply(req.Seq, nil, req.Target)
}

// foldDegraded accumulates the fail-open report riding a register.
func (srv *Server) foldDegraded(req wire.Request, resumed bool) {
	if req.SelfGrants == 0 && req.DegradedS == 0 && !resumed {
		return
	}
	if req.SelfGrants > 0 || req.DegradedS > 0 {
		srv.degradedSeen.Store(true)
	}
	d := srv.degraded[req.App]
	if d == nil {
		d = &wire.DegradedStats{Name: req.App}
		srv.degraded[req.App] = d
	}
	d.SelfGrants += req.SelfGrants
	d.DegradedS += req.DegradedS
	if resumed {
		d.Resumes++
	}
}

// disconnect handles a connection death: under GrantGrace a registered
// session enters limbo — coordination state intact, name reserved — until
// the grace deadline or a resume; otherwise (no grace, or never registered)
// it is dropped immediately. Under the control lock.
func (srv *Server) disconnect(s *session) {
	if s.gone.Load() || s.limbo {
		return
	}
	if id := s.id.Load(); id != nil {
		srv.cfg.Events.Emit(obs.Event{Kind: obs.EvDisconnect,
			Time: srv.clock(), App: id.name})
	}
	grace := srv.cfg.GrantGrace
	if grace <= 0 || s.id.Load() == nil {
		srv.drop(s, "disconnect")
		return
	}
	s.limbo = true
	s.teardown()
	s.graceTimer = time.AfterFunc(grace, func() { srv.graceExpired(s) })
	srv.logf("calciomd: %s: disconnected, holding state for %s", s.name(), grace)
}

// drop removes a session: its name is freed, every shard detaches its
// binding (unregistering the app and re-arbitrating survivors), and the
// session is torn down. Safe to call once per session; later calls are
// no-ops. Under the control lock.
func (srv *Server) drop(s *session, why string) {
	if !s.gone.CompareAndSwap(false, true) {
		return
	}
	if s.graceTimer != nil {
		s.graceTimer.Stop()
		s.graceTimer = nil
	}
	s.disarmHandshake()
	delete(srv.sessions, s)
	if id := s.id.Load(); id != nil {
		delete(srv.names, id.name)
		srv.logf("calciomd: %s: %s", id.name, why)
	}
	for _, sh := range srv.shardsSorted() {
		if sh.enter() {
			sh.detach(s)
			sh.mu.Unlock()
		}
	}
	s.teardown()
}

// evictIdle is the idle-eviction timer's callback, every SessionTimeout/2:
// it drops the sessions idle longer than SessionTimeout and re-arms.
func (srv *Server) evictIdle() {
	if !srv.ctl.enter() {
		return
	}
	defer srv.ctl.mu.Unlock()
	now := srv.clock()
	limit := srv.cfg.SessionTimeout.Seconds()
	var stale []*session
	for s := range srv.sessions {
		// A session blocked in Wait on any target is not idle.
		if s.pendingWaits.Load() == 0 && now-s.seen() > limit {
			stale = append(stale, s)
		}
	}
	// Map iteration order is random; evict deterministically by name.
	sort.Slice(stale, func(i, j int) bool { return stale[i].name() < stale[j].name() })
	for _, s := range stale {
		srv.drop(s, "session timeout")
	}
	srv.evict.Reset(srv.cfg.SessionTimeout / 2)
}

// shutdown runs once, from Close, under the control lock and after stop is
// closed: it marks the control plane stopped and every shard stopped under
// its lock — a reader, timer or Drain that takes either lock afterwards
// leaves without acting, so nothing is recorded to the trace from here on —
// takes the final snapshot, and tears down the remaining sessions. Shards
// created after stop closed are born stopped (see shardFor), so the pass
// over the current list is complete.
func (srv *Server) shutdown() {
	srv.ctl.stopped = true
	if srv.evict != nil {
		srv.evict.Stop()
	}
	for _, sh := range srv.shardsSorted() {
		sh.mu.Lock()
		sh.stopped = true
		if sh.recheck != nil {
			sh.recheck.Stop()
		}
		sh.mu.Unlock()
	}
	now := srv.clock()
	srv.final = srv.snapshot(now)
	for s := range srv.sessions {
		s.gone.Store(true)
		s.teardown()
	}
	srv.sessions = nil
	srv.logf("calciomd: shutdown after %.3fs, %d grants served", now, srv.final.GrantsServed)
}
