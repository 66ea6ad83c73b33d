package server

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// envelope kinds: everything the control goroutine is sent. Coordination
// verbs never travel in an envelope — the reader runs them itself under the
// shard's lock — except the few read before their session had an identity
// (kindRequest, see session.viaControl).
const (
	kindRequest = iota
	kindConnect
	kindDisconnect
	kindStats
	// kindExpire is a limbo session's grace deadline.
	kindExpire
	// kindHandshakeExpire is an unregistered connection's handshake
	// deadline: if the session still has no identity the slow-loris
	// connection is dropped.
	kindHandshakeExpire
)

// The shedding water marks hang off the control queue's capacity. The
// control queue enters brownout when its depth reaches shedHiWater (stats
// requests are answered with the retryable wire.CodeOverloaded instead of
// being enqueued) and exits only once it has drained to shedLoWater —
// hysteresis wide enough that a depth oscillating near one mark cannot flap
// the brownout bit. A shard has no queue; the same marks apply to its count
// of requests in flight (see shard.inflight).
const (
	queueCap    = 256
	shedHiWater = queueCap * 3 / 4
	shedLoWater = queueCap / 4
)

type envelope struct {
	kind    int
	s       *session
	req     wire.Request
	statsCh chan wire.Stats
}

// announce arms the session's register deadline and hands it to the control
// goroutine. It returns false when the server is stopping — the session was
// never adopted and the caller owns the connection's teardown.
func (srv *Server) announce(s *session) bool {
	// The handshake timer is armed before the kindConnect handoff, so the
	// control goroutine (which disarms it at register) observes it fully
	// formed via the channel send.
	if d := srv.cfg.HandshakeTimeout; d > 0 {
		s.handshake = time.AfterFunc(d, func() {
			select {
			case srv.reqCh <- envelope{kind: kindHandshakeExpire, s: s}:
			case <-srv.stop:
			}
		})
	}
	select {
	case srv.reqCh <- envelope{kind: kindConnect, s: s}:
		return true
	case <-srv.stop:
		if s.handshake != nil {
			s.handshake.Stop()
		}
		return false
	}
}

// ctrlShed is shed for the control queue (stats requests).
func (srv *Server) ctrlShed() bool {
	q := len(srv.reqCh)
	if srv.ctrlHot.Load() {
		if q <= shedLoWater {
			srv.ctrlHot.Store(false)
			return false
		}
		return true
	}
	if q >= shedHiWater {
		srv.ctrlHot.Store(true)
		return true
	}
	return false
}

// loop is the control goroutine: session lifecycle (connect, register,
// disconnect, eviction), stats merging and shutdown. Coordination state
// lives in the shards, which it locks like any reader does.
func (srv *Server) loop() {
	defer close(srv.loopDone)
	var evict <-chan time.Time
	if srv.cfg.SessionTimeout > 0 {
		t := time.NewTicker(srv.cfg.SessionTimeout / 2)
		defer t.Stop()
		evict = t.C
	}
	for {
		select {
		case env := <-srv.reqCh:
			srv.dispatch(env)
			// Clear a stale brownout once the queue has drained: readers
			// only re-evaluate the bit when a request arrives, so an idle
			// daemon would otherwise report overloaded forever.
			if srv.ctrlHot.Load() && len(srv.reqCh) <= shedLoWater {
				srv.ctrlHot.Store(false)
			}
		case <-evict:
			srv.evictIdle()
		case <-srv.stop:
			srv.shutdown()
			return
		}
	}
}

func (srv *Server) dispatch(env envelope) {
	switch env.kind {
	case kindConnect:
		srv.sessions[env.s] = struct{}{}
		env.s.touch(srv.clock())
	case kindDisconnect:
		srv.disconnect(env.s)
	case kindHandshakeExpire:
		// The pre-register deadline. A register disarms the timer, but a
		// firing racing the disarm can still deliver this envelope — the
		// identity check makes it a no-op then.
		if !env.s.gone.Load() && !env.s.limbo && env.s.id.Load() == nil {
			if srv.m != nil {
				srv.m.handshakeTimeouts.Inc()
			}
			srv.logf("calciomd: dropping unregistered connection: handshake timeout")
			srv.drop(env.s, "handshake timeout")
		}
	case kindExpire:
		// The grace deadline of a limbo session. A resume stops the timer,
		// but a firing racing the stop can still deliver this envelope —
		// the limbo check makes it a no-op then (resume cleared it).
		if !env.s.gone.Load() && env.s.limbo {
			if id := env.s.id.Load(); id != nil {
				srv.cfg.Events.Emit(obs.Event{Kind: obs.EvGraceExpire,
					Time: srv.clock(), App: id.name})
			}
			srv.drop(env.s, "grace expired")
		}
	case kindStats:
		env.statsCh <- srv.snapshot(srv.clock())
	case kindRequest:
		if env.s.gone.Load() {
			env.s.replyGone(env.req.Seq, env.req.Target)
			return
		}
		now := srv.clock()
		env.s.touch(now)
		switch env.req.Type {
		case wire.TypeRegister:
			srv.register(env.s, env.req, now)
		case wire.TypeStats:
			st := srv.snapshot(now)
			env.s.send(wire.Response{Seq: env.req.Seq, Type: wire.TypeResp, OK: true, Stats: &st})
		default:
			// A coordination frame the reader routed through this queue
			// because the session had no identity yet (or had earlier such
			// frames still in flight — see session.viaControl). If a
			// pipelined register ahead of it in this queue has landed by
			// now, serve it on the proper shard; otherwise the client
			// really isn't registered. The decrement comes after the frame
			// has been served, so the reader resumes direct routing only
			// once this frame has had its turn under the shard's lock.
			if env.s.id.Load() == nil {
				env.s.reply(env.req.Seq, errors.New("not registered"), env.req.Target)
				env.s.viaControl.Add(-1)
				return
			}
			sh, err := srv.shardFor(srv.routeTarget(env.s, env.req.Target))
			if err != nil {
				env.s.reply(env.req.Seq, err, env.req.Target)
				env.s.viaControl.Add(-1)
				return
			}
			sh.serve(env.s, env.req)
			env.s.viaControl.Add(-1)
		}
	}
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
func (srv *Server) register(s *session, req wire.Request, now float64) {
	if id := s.id.Load(); id != nil {
		s.replyCode(req.Seq, wire.CodeProtocol, fmt.Errorf("already registered as %s", id.name), req.Target)
		return
	}
	if req.App == "" {
		s.replyCode(req.Seq, wire.CodeProtocol, errors.New("server: empty application name"), req.Target)
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
	if srv.m != nil {
		srv.m.selfGrants.Add(req.SelfGrants)
		if req.DegradedS > 0 {
			srv.m.degradedSeconds.Add(req.DegradedS)
		}
		if resumed {
			srv.m.resumes.Inc()
		}
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
// it is dropped immediately.
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
	s.graceTimer = time.AfterFunc(grace, func() {
		select {
		case srv.reqCh <- envelope{kind: kindExpire, s: s}:
		case <-srv.stop:
		}
	})
	if id := s.id.Load(); id != nil {
		srv.logf("calciomd: %s: disconnected, holding state for %s", id.name, grace)
	}
}

// drop removes a session: its name is freed, every shard detaches its
// binding (unregistering the app and re-arbitrating survivors), and the
// session is torn down. Safe to call once per session; later calls are
// no-ops.
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

func (srv *Server) evictIdle() {
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
	sort.Slice(stale, func(i, j int) bool {
		ni, nj := "", ""
		if id := stale[i].id.Load(); id != nil {
			ni = id.name
		}
		if id := stale[j].id.Load(); id != nil {
			nj = id.name
		}
		return ni < nj
	})
	for _, s := range stale {
		srv.drop(s, "session timeout")
	}
}

// shutdown runs once stop is closed, on the control goroutine (or in Close,
// on a server that never served): it marks every shard stopped under its
// lock — a reader, timer or Drain that takes the lock afterwards leaves
// without dispatching, so nothing is recorded to the trace from here on —
// takes the final snapshot, and tears down the remaining sessions. Shards
// created after stop closed are born stopped (see shardFor), so the pass
// over the current list is complete.
func (srv *Server) shutdown() {
	for _, sh := range srv.shardsSorted() {
		sh.mu.Lock()
		sh.stopped = true
		if sh.recheck != nil {
			sh.recheck.Stop()
			sh.recheck = nil
		}
		sh.mu.Unlock()
	}
	now := srv.clock()
	st := srv.snapshot(now)
	srv.mu.Lock()
	srv.final = st
	srv.mu.Unlock()
	for s := range srv.sessions {
		s.gone.Store(true)
		s.teardown()
	}
	srv.sessions = nil
	srv.logf("calciomd: shutdown after %.3fs, %d grants served", now, st.GrantsServed)
}
