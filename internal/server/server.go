// Package server implements calciomd, the live CALCioM coordination daemon:
// the paper's arbitration layer run as a network service instead of inside
// the discrete-event simulator.
//
// Coordination is sharded by storage target, and a shard is a piece of
// state behind a mutex, not a goroutine behind a queue: the core.Domain of
// its target, which applies every verb, plus the target's bindings, trace
// records, metrics and recheck timer. One goroutine per connection reads
// frames and runs each request to completion itself under the lock of the
// shard its target names; register and stats run the same way under the
// control lock, behind which session lifecycle lives (see Server.ctl). The
// reader writes what it queued before it reads again; one writer goroutine
// per connection writes what other goroutines (pushed grants, revocations)
// queue meanwhile. A target's decisions are therefore deterministic given
// its lock order, which the trace records, and never wait on another
// target's. The repro package documentation has the full architecture.
package server

import (
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Config is a daemon's settings: calciomd binds its flags into one, and New
// checks it.
type Config struct {
	// Policy arbitrates storage-target access; required. The shipped
	// policies are stateless values, so one policy instance serves every
	// target's arbiter.
	Policy core.Policy
	// Model, when set, lets stats estimate per-app solo times and live
	// interference factors (and is required by delay/dynamic policies,
	// which are constructed with it).
	Model *core.PerfModel
	// SessionTimeout evicts sessions idle longer than this; 0 disables.
	SessionTimeout time.Duration
	// GrantGrace keeps a disconnected registered session's coordination
	// state — its name, bindings, and any authorization it holds — alive
	// for this long, giving the client a window to reconnect and resume
	// under the same name with a higher incarnation. When the window
	// expires unresumed the session is dropped: its grants are revoked and
	// every target it was mid-phase on re-arbitrates, so one crashed client
	// convoys a target for at most GrantGrace. 0 drops a session the moment
	// its connection dies (the original behavior). GrantGrace must be
	// shorter than SessionTimeout when both are set: the grace window is
	// for fast reconnects, idle eviction for abandoned sessions.
	GrantGrace time.Duration
	// Clock returns the coordination time in seconds. Nil means monotonic
	// wall time since the server started. Tests inject a logical clock to
	// make entire runs deterministic. The clock must be safe for concurrent
	// use: every connection's reader goroutine reads it.
	Clock func() float64
	// Logf, when set, receives one line per lifecycle event (connects,
	// evictions, shutdown). The arbitration hot path never logs.
	Logf func(format string, args ...any)
	// Trace, when set, records every state-mutating coordination event (and
	// the authorization flips arbitration produced) for offline replay with
	// internal/replay. Every event carries the storage target whose shard
	// recorded it, so replay can partition the file back into per-target
	// streams. Recording happens under the shard's lock but adds neither
	// blocking nor allocation to it: each event is copied into the
	// writer's current chunk under its leaf mutex, the drain goroutine is
	// woken once per filled chunk, and overflow is drop-counted, never
	// waited on. The caller owns the writer and must Close it only after
	// the server has shut down (a Record racing Close would be dropped).
	Trace *trace.Writer
	// Metrics, when set, receives the daemon's metric families. Hot-path
	// instrumentation covers what stats do not keep: per-target revoke and
	// shed counters, queue-depth gauges, wait-to-grant and hold-time
	// histograms, and the connection and overload counters. Each shard
	// resolves its series once at creation, so arbitration only ever
	// performs atomic adds — the hot path stays allocation-free with
	// metrics on. The counts stats do keep (grants, arbitrations, the wait
	// split, the fail-open totals, sessions, the per-application rows) are
	// rendered by a collector New registers, from one Stats snapshot per
	// scrape. Nil disables collection entirely (and stats carry no
	// histograms).
	Metrics *obs.Registry
	// Events, when set, receives sampled grant-lifecycle events
	// (register/resume, wait→grant, revoke, grace expiry, drain). Emission
	// is a non-blocking by-value channel send; formatting happens on the
	// event log's own goroutine. The caller owns the log and must Close it
	// only after the server has shut down.
	Events *obs.EventLog
	// MaxSessions bounds concurrently registered application sessions:
	// a register that would grow the name table past it is rejected with
	// the retryable wire.CodeBusy. Resumes of held names never count
	// against the bound (they replace a session, not add one). 0 means
	// unlimited.
	MaxSessions int
	// HandshakeTimeout drops a connection that has not completed register
	// within it, so an idle unregistered socket cannot live forever (idle
	// eviction only covers registered sessions). 0 disables the deadline;
	// like GrantGrace, it must be shorter than a set SessionTimeout.
	HandshakeTimeout time.Duration
	// RateLimit caps each connection's sustained request rate in requests
	// per second, enforced by a per-connection token bucket (burst equal
	// to the rate) on the reader goroutine — no locks, no allocation. The
	// first violation is answered with the retryable wire.CodeOverloaded;
	// a second consecutive violation disconnects the client. 0 disables
	// per-connection rate limiting.
	RateLimit float64
}

// ident is a session's registration identity, written once under the
// control lock at register and read by reader goroutines through an atomic
// pointer.
type ident struct {
	name      string
	cores     int
	sid       uint32 // trace session identity
	defTarget string // target requests with an empty Target route to
	// incarnation is the client instance's connection epoch: a register for
	// a held name with a strictly higher incarnation resumes the session
	// (reclaims name, sid and accounting); an equal-or-lower one is a lost
	// resume race and is rejected. 0 is a legacy client (never resumable).
	incarnation uint64
}

// session is one client session: a stream of a connection. The shared
// fields are written under the control lock and read by reader and writer
// goroutines; per-target coordination state lives in bindings guarded by
// the shards' locks.
type session struct {
	c      *conn
	stream uint64
	dead   atomic.Bool // torn down: later responses are dropped

	id           atomic.Pointer[ident]
	gone         atomic.Bool   // dropped; shards ignore later requests
	lastSeen     atomic.Uint64 // float64 bits of the last request time
	pendingWaits atomic.Int32  // deferred Waits across all targets

	// Guarded by the control lock. A disconnected registered session under
	// Config.GrantGrace is in limbo, keeping its coordination state until
	// graceTimer fires or a resume reclaims it. handshake is the
	// pre-register deadline, armed when the stream opens; a successful
	// register (or resume, or drop) disarms it.
	limbo      bool
	graceTimer *time.Timer
	handshake  *time.Timer
	// lastShard is a one-entry routing cache owned by the connection's
	// reader goroutine (shards are never removed while serving): a session
	// nearly always addresses the target it addressed last, which saves the
	// shard-table read lock and map lookup per request. On a mux connection
	// the reader interleaves many sessions, so the entry lives with the
	// session rather than the reader.
	lastShard *shard
}

// touch stamps the session's idle-eviction clock.
func (s *session) touch(now float64) { s.lastSeen.Store(math.Float64bits(now)) }

// disarmHandshake stops the pre-register deadline. Under the control lock.
func (s *session) disarmHandshake() {
	if s.handshake != nil {
		s.handshake.Stop()
		s.handshake = nil
	}
}

func (s *session) seen() float64 { return math.Float64frombits(s.lastSeen.Load()) }

// teardown ends the session. Dropping the only stream of a plain
// connection closes the connection; a mux stream's connection lives on.
// Idempotent: the limbo path tears a session down at disconnect, and the
// eventual drop (grace expiry, resume, shutdown) reaches here again.
func (s *session) teardown() {
	s.dead.Store(true)
	if s.c != nil && !s.c.mux {
		s.c.teardown()
	}
}

// send enqueues a response on the session's connection without ever
// blocking its caller, which holds a shard's lock.
func (s *session) send(r wire.Response) {
	if s.c != nil && !s.dead.Load() {
		s.c.send(s.stream, r)
	}
}

// replyGone answers a request that reached a dropped session. On a plain
// connection this is moot — drop tore the connection down, so the send is
// dropped and the client sees the disconnect — but a mux stream's
// connection outlives the stream, and without an error reply the client
// would hang on the request forever.
func (s *session) replyGone(seq uint64, target string) {
	if s.c != nil && seq != 0 {
		s.c.send(s.stream, wire.Response{Seq: seq, Type: wire.TypeResp,
			Err: "session dropped", Code: wire.CodeProtocol, Target: target})
	}
}

// name returns the session's registered application name, or "" before
// register. Safe from any goroutine.
func (s *session) name() string {
	if id := s.id.Load(); id != nil {
		return id.name
	}
	return ""
}

// Server is the coordination daemon. Create with New, run with Serve, stop
// with Close.
type Server struct {
	cfg   Config
	clock func() float64

	// writeBuffer bounds the responses waiting in each connection's queue
	// for a write (16 times that on a mux connection) — those to one read's
	// worth of the client's frames, and pushes queued while a write is
	// blocked. A client too slow to drain it is disconnected rather than
	// allowed to stall arbitration; tests shrink the bound before Serve to
	// drive that path deterministically.
	writeBuffer int

	stop chan struct{}

	shmu      sync.RWMutex
	shards    map[string]*shard
	shardList []*shard // sorted by target

	// mu guards the listener and the lifecycle flags, and no work is done
	// under it, so Addr and /healthz never wait behind the control plane.
	mu        sync.Mutex
	ln        net.Listener // set by Serve
	closed    bool
	draining  atomic.Bool // set under mu; shardFor reads it under shmu
	serveDone chan struct{}
	closeDone chan struct{} // closed once the first Close finished teardown
	wg        sync.WaitGroup

	// ctl is the control lock. Session lifecycle — the fields below and
	// every session's limbo and timers — is state behind it: whoever has
	// control-plane work (a reader's register, stats, stream open or
	// disconnect; a handshake, grace or idle-eviction timer; Close) takes
	// it, runs the work to completion on its own goroutine and unlocks, as
	// with a shard's lock. Lock order is one-way, control → shard:
	// control-plane work takes shard locks to detach, rebind and snapshot,
	// and nothing that holds a shard lock may take ctl.
	ctl      gate
	sessions map[*session]struct{}
	names    map[string]*session // registered application names
	sidSeq   uint32              // last trace session identity handed out
	// degraded accumulates the fail-open accounting clients report on
	// (re-)register: per app name, cumulative across resumes. Surfaced
	// through Stats.Degraded.
	degraded map[string]*wire.DegradedStats
	evict    *time.Timer // idle eviction; its callback re-arms it
	final    wire.Stats  // the snapshot shutdown took, served after Close

	// m holds the daemon-wide metric series (nil without a registry);
	// degradedSeen flips once any client reports fail-open coordination and
	// feeds Health.
	m            *serverMetrics
	degradedSeen atomic.Bool
}

// New checks the configuration and builds a server (not yet listening).
// It is the one check of a daemon's settings, and its errors name the
// calciomd flag at fault.
func New(cfg Config) (*Server, error) {
	switch {
	case cfg.Policy == nil:
		return nil, errors.New("server: nil policy")
	case cfg.SessionTimeout < 0:
		return nil, errors.New("server: -session-timeout must be >= 0")
	case cfg.GrantGrace < 0:
		return nil, errors.New("server: -grant-grace must be >= 0")
	case cfg.GrantGrace > 0 && cfg.SessionTimeout > 0 && cfg.GrantGrace >= cfg.SessionTimeout:
		return nil, errors.New("server: -grant-grace must be shorter than -session-timeout")
	case cfg.MaxSessions < 0:
		return nil, errors.New("server: -max-sessions must be >= 1, or 0 for unlimited")
	case cfg.HandshakeTimeout < 0:
		return nil, errors.New("server: -handshake-timeout must be >= 0")
	case cfg.HandshakeTimeout > 0 && cfg.SessionTimeout > 0 && cfg.HandshakeTimeout >= cfg.SessionTimeout:
		return nil, errors.New("server: -handshake-timeout must be shorter than -session-timeout")
	case cfg.RateLimit < 0:
		return nil, errors.New("server: -max-requests-per-sec must be >= 0")
	}
	clock := cfg.Clock
	if clock == nil {
		start := time.Now()
		clock = func() float64 { return time.Since(start).Seconds() }
	}
	srv := &Server{
		cfg:         cfg,
		clock:       clock,
		writeBuffer: 256,
		stop:        make(chan struct{}),
		serveDone:   make(chan struct{}),
		closeDone:   make(chan struct{}),
		shards:      make(map[string]*shard),
		sessions:    make(map[*session]struct{}),
		names:       make(map[string]*session),
		degraded:    make(map[string]*wire.DegradedStats),
	}
	if cfg.Metrics != nil {
		srv.m = newServerMetrics(cfg.Metrics)
		cfg.Metrics.Collect(srv.collect)
	}
	return srv, nil
}

func (srv *Server) logf(format string, args ...any) {
	if srv.cfg.Logf != nil {
		srv.cfg.Logf(format, args...)
	}
}

// Addr returns the listening address (nil before Serve).
func (srv *Server) Addr() net.Addr {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.ln == nil {
		return nil
	}
	return srv.ln.Addr()
}

// Serve accepts connections on ln, in one loop, until Close or Drain closes
// ln; every accepted connection gets its own reader goroutine. It returns
// nil after a clean Close or Drain, or the accept error otherwise. Serve may
// be called at most once.
func (srv *Server) Serve(ln net.Listener) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	if srv.ln != nil {
		srv.mu.Unlock()
		ln.Close()
		return errors.New("server: already serving")
	}
	srv.ln = ln
	srv.mu.Unlock()
	// Closed when the accept loop has returned: after that, no new
	// startSession can run, which Close relies on for a complete teardown.
	defer close(srv.serveDone)
	if d := srv.cfg.SessionTimeout; d > 0 {
		srv.ctl.mu.Lock()
		srv.evict = time.AfterFunc(d/2, srv.evictIdle)
		srv.ctl.mu.Unlock()
	}
	srv.logf("calciomd: serving on %s (policy %s)", ln.Addr(), srv.cfg.Policy.Name())
	for {
		conn, err := ln.Accept()
		if err != nil {
			srv.mu.Lock()
			clean := srv.closed || srv.draining.Load()
			srv.mu.Unlock()
			if clean {
				return nil
			}
			return err
		}
		srv.startSession(conn)
	}
}

// Drain begins a graceful shutdown: the listener stops accepting, every
// shard answers its pending Waits (and refuses subsequent ones) with a
// retryable wire.CodeDraining error, so clients unblock, learn the daemon is
// going away, and can retry against its successor instead of hanging into
// Close's teardown. Coordination state is otherwise intact — sessions may
// still Release/End cleanly. Drain returns once every existing shard has
// been drained, and a shard created later is born draining; call Close
// afterwards to tear the daemon down.
func (srv *Server) Drain() {
	srv.mu.Lock()
	if srv.closed || srv.draining.Load() {
		srv.mu.Unlock()
		return
	}
	srv.draining.Store(true)
	ln := srv.ln
	srv.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	srv.logf("calciomd: draining")
	for _, sh := range srv.shardsSorted() {
		if sh.enter() {
			sh.drainWaits()
			sh.mu.Unlock()
		}
	}
}

// Close stops the daemon: the listener, every session, every shard and the
// control plane are torn down, and Close returns once all goroutines have
// exited. Concurrent and repeated Close calls are safe, and every one of
// them blocks until the teardown is complete — a caller that saw Serve
// return (the accept loop exits before the readers do) can Close and then
// safely release resources arbitration was using, such as a trace writer:
// every shard is marked stopped under its lock, so even a recheck timer
// firing later records nothing.
func (srv *Server) Close() error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		<-srv.closeDone
		return nil
	}
	srv.closed = true
	ln := srv.ln
	srv.mu.Unlock()
	defer close(srv.closeDone)
	if ln != nil {
		// Wait for the accept loop: once it has returned, no further
		// startSession can join wg.
		ln.Close()
		<-srv.serveDone
	}
	// stop closes under the control lock, so no disconnect or timer gets
	// in between it and shutdown.
	srv.ctl.mu.Lock()
	close(srv.stop)
	srv.shutdown()
	srv.ctl.mu.Unlock()
	// Every connection's writer leaves on stop and closes its connection,
	// which ends its reader too.
	srv.wg.Wait()
	return nil
}

// reply answers a control-plane request (no binding, so never authorized).
// Errors are classified by codeFor; use replyCode for an explicit code.
func (s *session) reply(seq uint64, err error, target string) {
	code := ""
	if err != nil {
		code = codeFor(err)
	}
	s.replyCode(seq, code, err, target)
}

func (s *session) replyCode(seq uint64, code string, err error, target string) {
	r := wire.Response{Seq: seq, Type: wire.TypeResp, OK: err == nil, Target: target}
	if err != nil {
		r.Err = err.Error()
		r.Code = code
	}
	s.send(r)
}

// codeFor classifies an error reply for clients deciding between retry and
// fail-fast: everything here is fatal for the request that provoked it;
// retryable codes (draining) are set explicitly at their source.
func codeFor(err error) string {
	if errors.Is(err, errTooManyTargets) {
		return wire.CodeTooManyTargets
	}
	return wire.CodeProtocol
}

// handle runs one decoded request to completion on the calling goroutine: a
// connection's reader, or a test or benchmark driving the server directly.
// Register and stats run under the control lock (see control). A
// coordination verb runs under the lock of the shard of the target it
// addresses: an explicit Target, otherwise the session's default target
// from registration. A reader finishes a register before it reads the next
// frame, so a coordination frame pipelined behind a register finds the
// identity set, or finds none and is answered "not registered". Returns
// false when the server is stopping.
func (srv *Server) handle(s *session, req wire.Request) bool {
	if req.Type == wire.TypeRegister || req.Type == wire.TypeStats {
		return srv.control(s, req)
	}
	id := s.id.Load()
	if id == nil {
		s.touch(srv.clock())
		s.reply(req.Seq, errors.New("not registered"), req.Target)
		return true
	}
	target := req.Target
	if target == "" {
		target = id.defTarget
	}
	sh := s.lastShard
	if sh == nil || sh.target != target {
		var err error
		if sh, err = srv.shardFor(target); err != nil {
			s.reply(req.Seq, err, req.Target)
			return true
		}
		s.lastShard = sh
	}
	if sheddable(req.Type) && sh.shed() {
		if sh.m != nil {
			sh.m.sheds.Inc()
		}
		srv.shedReply(s, req.Seq, req.Type, sh.target, srv.clock())
		return true
	}
	return sh.serve(s, req)
}
