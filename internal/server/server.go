// Package server implements calciomd, the live CALCioM coordination daemon:
// the paper's arbitration layer run as a network service instead of inside
// the discrete-event simulator.
//
// Architecture: coordination is sharded by storage target, and a shard is a
// piece of state behind a mutex, not a goroutine behind a queue. One
// goroutine per connection reads wire.Request frames and runs each
// coordination request to completion itself: it resolves the shard of the
// target the request addresses, takes that shard's lock, arbitrates, queues
// the responses and unlocks (register and stats go to a control goroutine
// that owns session lifecycle); one goroutine per connection writes
// responses and pushed grants/revocations back out. Each target's
// coordination state — its core.Arbiter from the shared core.ArbiterSet,
// per-session bindings, pending Waits, the decision log — is touched only
// under that target's lock, so per-target decisions are fully deterministic
// given that target's serialized request order (the lock order, which is
// also the order the trace records), and a grant on one target never waits
// for — or convoys behind — arbitration on another: hold times are one
// decision's, well under a microsecond. The number of goroutines depends on
// the number of connections, never on the number of targets. A daemon whose
// clients never name a target runs exactly one shard (the default target
// "").
//
// The arbitration hot path is allocation-conscious like the simulator's
// contention path: each Arbiter reuses its view/decision scratch (and owns
// the model scratch its policy estimates in: the policy value is shared by
// every shard), the policies — all implement core.IndexedArbitrator — run
// map-free, and responses are written through per-connection buffered
// writers with batched flushes.
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

// Config parameterizes a daemon.
type Config struct {
	// ListenAddr is the TCP address for ListenAndServe ("host:port").
	ListenAddr string
	// Policy arbitrates storage-target access; required. The shipped
	// policies are stateless values, so one policy instance serves every
	// target's arbiter.
	Policy core.Policy
	// Model, when set, lets stats estimate per-app solo times and live
	// interference factors (and is required by delay/dynamic policies,
	// which are constructed with it).
	Model *core.PerfModel
	// MaxTargets bounds how many distinct storage targets (shards, each an
	// arbiter plus its bindings) the daemon will create; requests naming a
	// target beyond the bound are rejected, so a client cannot grow the
	// shard set without limit. 0 means the default (DefaultMaxTargets);
	// negative removes the bound.
	MaxTargets int
	// SessionTimeout evicts sessions idle longer than this; 0 disables.
	SessionTimeout time.Duration
	// GrantGrace keeps a disconnected registered session's coordination
	// state — its name, bindings, and any authorization it holds — alive
	// for this long, giving the client a window to reconnect and resume
	// under the same name with a higher incarnation. When the window
	// expires unresumed the session is dropped: its grants are revoked and
	// every target it was mid-phase on re-arbitrates, so one crashed client
	// convoys a target for at most GrantGrace. 0 drops a session the moment
	// its connection dies (the original behavior). GrantGrace should be
	// shorter than SessionTimeout: the grace window is for fast reconnects,
	// idle eviction for abandoned sessions.
	GrantGrace time.Duration
	// Clock returns the coordination time in seconds. Nil means monotonic
	// wall time since the server started. Tests inject a logical clock to
	// make entire runs deterministic. The clock must be safe for concurrent
	// use: every connection's reader goroutine reads it.
	Clock func() float64
	// LogBound bounds each target's decision log kept for stats: 0 means
	// the default (256), negative disables logging entirely (benchmarks).
	LogBound int
	// Logf, when set, receives one line per lifecycle event (connects,
	// evictions, shutdown). The arbitration hot path never logs.
	Logf func(format string, args ...any)
	// Trace, when set, records every state-mutating coordination event (and
	// the authorization flips arbitration produced) for offline replay with
	// internal/replay. Every event carries the storage target whose shard
	// recorded it, so replay can partition the file back into per-target
	// streams. Recording happens under the shard's lock but adds neither
	// blocking nor allocation to it: events travel by value into the
	// writer's buffered channel, and overflow is drop-counted, never waited
	// on. The caller owns the writer and must Close it only after the
	// server has shut down.
	Trace *trace.Writer
	// Metrics, when set, receives hot-path instrumentation: per-target
	// grant/arbitration/revoke counters, queue-depth gauges, and
	// wait-to-grant and hold-time histograms. Each shard resolves its series
	// once at creation, so arbitration only ever performs atomic adds — the
	// hot path stays allocation-free with metrics on. Nil
	// disables collection entirely (and stats carry no histograms).
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
	// eviction only covers registered sessions). 0 disables the deadline.
	HandshakeTimeout time.Duration
	// RateLimit caps each connection's sustained request rate in requests
	// per second, enforced by a per-connection token bucket (burst equal
	// to the rate) on the reader goroutine — no locks, no allocation. The
	// first violation is answered with the retryable wire.CodeOverloaded;
	// a second consecutive violation disconnects the client. 0 disables
	// per-connection rate limiting.
	RateLimit float64
	// WriteBuffer overrides each connection's response-buffer capacity
	// (default 256). A client too slow to drain it is disconnected rather
	// than allowed to stall arbitration; tests shrink the buffer to drive
	// that path deterministically.
	WriteBuffer int
	// AcceptLoops sets how many goroutines run the listener's accept loop
	// (default 1). Sharding the accept loop keeps connection-churn-heavy
	// workloads (100k-session rolling restarts) from serializing behind a
	// single accept caller. Values below 1 mean 1.
	AcceptLoops int
	// SockBuffer, when positive, sets the kernel read and write buffer
	// sizes (SO_RCVBUF/SO_SNDBUF) on every accepted TCP connection. 0
	// keeps the OS defaults.
	SockBuffer int
}

// ident is a session's registration identity, written once by the control
// goroutine at register and read by reader goroutines through an atomic
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
// fields are written by the control goroutine and read by reader and
// writer goroutines; per-target coordination state lives in bindings
// guarded by the shards' locks.
type session struct {
	c      *conn
	stream uint64
	dead   atomic.Bool // torn down: later responses are dropped

	id           atomic.Pointer[ident]
	gone         atomic.Bool   // dropped; shards ignore later requests
	lastSeen     atomic.Uint64 // float64 bits of the last request time
	pendingWaits atomic.Int32  // deferred Waits across all targets

	// limbo and graceTimer are owned by the control goroutine: a
	// disconnected registered session under Config.GrantGrace keeps its
	// coordination state until the timer fires or a resume reclaims it.
	limbo      bool
	graceTimer *time.Timer
	// handshake is the pre-register deadline timer, armed before the
	// kindConnect envelope is enqueued and owned by the control goroutine
	// afterwards; a successful register (or resume, or drop) disarms it.
	handshake *time.Timer
	// viaControl counts this session's coordination frames still in
	// flight through the control goroutine (frames read before the
	// session had an identity). While it is nonzero the reader keeps
	// routing through the control goroutine, so per-session order is one
	// FIFO path — a later frame can never overtake an earlier one into a
	// shard. The reader increments before sending; the control goroutine
	// decrements after serving (or answering) the frame.
	viaControl atomic.Int32
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

// disarmHandshake stops the pre-register deadline. Control goroutine only.
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

// Server is the coordination daemon. Create with New, run with Serve or
// ListenAndServe, stop with Close.
type Server struct {
	cfg   Config
	clock func() float64
	set   *core.ArbiterSet

	reqCh chan envelope
	stop  chan struct{}

	shmu      sync.RWMutex
	shards    map[string]*shard
	shardList []*shard // sorted by target

	mu sync.Mutex
	ln net.Listener
	// extraLns are additional SO_REUSEPORT listeners on the same address
	// (ListenAndServe with AcceptLoops > 1 on Linux); Serve runs one accept
	// loop per extra listener, and Drain/Close close them with ln.
	extraLns  []net.Listener
	closed    bool
	draining  bool
	serving   bool
	serveDone chan struct{}
	loopDone  chan struct{}
	closeDone chan struct{} // closed once the first Close finished teardown
	wg        sync.WaitGroup
	final     wire.Stats // last snapshot, served after the loop exits

	// Owned by the control goroutine (or the caller, on a server that never
	// served).
	sessions map[*session]struct{}
	names    map[string]*session // registered application names
	sidSeq   uint32              // last trace session identity handed out
	// degraded accumulates the fail-open accounting clients report on
	// (re-)register: per app name, cumulative across resumes. Owned like
	// sessions/names; surfaced through Stats.Degraded.
	degraded map[string]*wire.DegradedStats

	// m holds the control-plane metric series (nil without a registry);
	// degradedSeen flips once any client reports fail-open coordination and
	// feeds Health.
	m            *serverMetrics
	degradedSeen atomic.Bool
	// ctrlHot is the control queue's brownout bit (same hysteresis as a
	// shard's): while set, stats requests are shed so session lifecycle
	// traffic keeps flowing.
	ctrlHot atomic.Bool
}

// New validates the configuration and builds a server (not yet listening).
func New(cfg Config) (*Server, error) {
	if cfg.Policy == nil {
		return nil, errors.New("server: nil policy")
	}
	clock := cfg.Clock
	if clock == nil {
		start := time.Now()
		clock = func() float64 { return time.Since(start).Seconds() }
	}
	set := core.NewArbiterSet(cfg.Policy)
	switch {
	case cfg.LogBound < 0:
		set.SetLogBound(0)
	case cfg.LogBound == 0:
		set.SetLogBound(256)
	default:
		set.SetLogBound(cfg.LogBound)
	}
	var m *serverMetrics
	if cfg.Metrics != nil {
		m = newServerMetrics(cfg.Metrics)
	}
	return &Server{
		cfg:       cfg,
		clock:     clock,
		set:       set,
		m:         m,
		reqCh:     make(chan envelope, queueCap),
		stop:      make(chan struct{}),
		serveDone: make(chan struct{}),
		loopDone:  make(chan struct{}),
		closeDone: make(chan struct{}),
		shards:    make(map[string]*shard),
		sessions:  make(map[*session]struct{}),
		names:     make(map[string]*session),
		degraded:  make(map[string]*wire.DegradedStats),
	}, nil
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

// routeTarget resolves a request's coordination domain: an explicit Target
// wins, otherwise the session's default target from registration.
func (srv *Server) routeTarget(s *session, target string) string {
	if target != "" {
		return target
	}
	if id := s.id.Load(); id != nil {
		return id.defTarget
	}
	return ""
}

// ListenAndServe listens on cfg.ListenAddr and serves until Close. With
// AcceptLoops > 1 on Linux it shards the listener itself: one SO_REUSEPORT
// socket per accept loop, so the kernel distributes connection bursts
// across independent accept queues. Elsewhere (or if the sharded bind
// fails) it falls back to AcceptLoops goroutines sharing one listener.
func (srv *Server) ListenAndServe() error {
	if n := srv.cfg.AcceptLoops; n > 1 && reuseportAvailable {
		if lns, err := listenReuseport(srv.cfg.ListenAddr, n); err == nil {
			srv.mu.Lock()
			srv.extraLns = lns[1:]
			srv.mu.Unlock()
			srv.logf("calciomd: %d reuseport listeners on %s", n, lns[0].Addr())
			return srv.Serve(lns[0])
		}
	}
	ln, err := net.Listen("tcp", srv.cfg.ListenAddr)
	if err != nil {
		return err
	}
	return srv.Serve(ln)
}

// Serve accepts connections on ln until Close. It returns nil after a clean
// Close, or the accept error otherwise. Serve may be called at most once.
func (srv *Server) Serve(ln net.Listener) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	if srv.serving {
		srv.mu.Unlock()
		ln.Close()
		return errors.New("server: already serving")
	}
	srv.serving = true
	srv.ln = ln
	srv.mu.Unlock()
	// Closed when every accept loop has returned: after that, no new
	// startSession can run, which Close relies on for a complete teardown.
	defer close(srv.serveDone)
	go srv.loop()
	srv.logf("calciomd: serving on %s (policy %s)", ln.Addr(), srv.cfg.Policy.Name())
	accept := func(ln net.Listener) error {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return err
			}
			if tc, ok := conn.(*net.TCPConn); ok && srv.cfg.SockBuffer > 0 {
				tc.SetReadBuffer(srv.cfg.SockBuffer)
				tc.SetWriteBuffer(srv.cfg.SockBuffer)
			}
			srv.startSession(conn)
		}
	}
	// Accept-loop sharding. With SO_REUSEPORT listeners (ListenAndServe on
	// Linux) each extra listener gets its own accept loop; otherwise extra
	// goroutines accept from the shared listener so bursts of connection
	// churn are not serialized behind one accept caller. Closing the
	// listeners unblocks every loop.
	srv.mu.Lock()
	extras := srv.extraLns
	srv.mu.Unlock()
	var extra sync.WaitGroup
	if len(extras) > 0 {
		for _, eln := range extras {
			extra.Add(1)
			go func(eln net.Listener) {
				defer extra.Done()
				accept(eln)
			}(eln)
		}
	} else {
		for i := 1; i < srv.cfg.AcceptLoops; i++ {
			extra.Add(1)
			go func() {
				defer extra.Done()
				accept(ln)
			}()
		}
	}
	err := accept(ln)
	extra.Wait()
	srv.mu.Lock()
	clean := srv.closed || srv.draining
	srv.mu.Unlock()
	if clean {
		return nil
	}
	return err
}

// Drain begins a graceful shutdown: the listener stops accepting, every
// shard answers its pending Waits (and refuses subsequent ones) with a
// retryable wire.CodeDraining error, so clients unblock, learn the daemon is
// going away, and can retry against its successor instead of hanging into
// Close's teardown. Coordination state is otherwise intact — sessions may
// still Release/End cleanly. Drain returns once every existing shard has
// been drained; call Close afterwards to tear the daemon down.
func (srv *Server) Drain() {
	srv.mu.Lock()
	if srv.closed || srv.draining {
		srv.mu.Unlock()
		return
	}
	srv.draining = true
	ln := srv.ln
	extras := srv.extraLns
	srv.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, eln := range extras {
		eln.Close()
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
// control loop are torn down, and Close returns once all goroutines have
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
	ln, serving := srv.ln, srv.serving
	extras := srv.extraLns
	srv.mu.Unlock()
	defer close(srv.closeDone)
	if ln != nil {
		ln.Close()
	}
	for _, eln := range extras {
		eln.Close()
	}
	if serving {
		// Wait for the accept loop first: once it has returned, no further
		// startSession can enqueue a connection the control loop would
		// never see.
		<-srv.serveDone
	}
	close(srv.stop)
	if !serving {
		// No control loop ever owned the coordination state; shut it down
		// here.
		srv.shutdown()
	} else {
		<-srv.loopDone
	}
	// Every connection's writer leaves on stop and closes its connection,
	// which ends its reader too — sessions the control loop never adopted
	// included.
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

// handle drives a server that is not serving: the caller's goroutine plays
// both the reader (coordination verbs, through the same shard.serve a
// connection's reader calls) and the control goroutine (register, stats).
// Tests and benchmarks drive serialized (or per-shard-concurrent) request
// sequences through it.
func (srv *Server) handle(s *session, req wire.Request) {
	switch req.Type {
	case wire.TypeRegister:
		now := srv.clock()
		s.touch(now)
		srv.register(s, req, now)
	case wire.TypeStats:
		now := srv.clock()
		s.touch(now)
		st := srv.snapshot(now)
		s.send(wire.Response{Seq: req.Seq, Type: wire.TypeResp, OK: true, Stats: &st})
	default:
		sh, err := srv.shardFor(srv.routeTarget(s, req.Target))
		if err != nil {
			s.reply(req.Seq, err, req.Target)
			return
		}
		sh.serve(s, req)
	}
}
