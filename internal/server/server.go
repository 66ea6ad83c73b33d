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
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/wirebin"
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

// session is one client connection. The shared fields are written by the
// control goroutine and read by reader and writer goroutines; per-target
// coordination state lives in bindings guarded by the shards' locks.
type session struct {
	conn net.Conn
	// rd and wr are the connection's byte streams, wrapped for byte
	// accounting when a metrics registry is configured. The reader and
	// writer goroutines buffer on top of them.
	rd io.Reader
	wr io.Writer
	// codec is the wire format negotiated from the connection's first byte
	// (see wire.HelloMagic). serveConn completes negotiation before the
	// session exists, so the write loop starts with the codec installed.
	codec wire.Codec
	out   chan wire.Response
	quit  chan struct{} // closed at teardown; the write loop drains and exits
	dead  atomic.Bool

	// mc and stream are set on mux stream sessions only: the session is one
	// logical stream of a shared mux connection. out and quit are nil then —
	// responses go through mc's group-commit write loop, and teardown marks
	// the stream dead without touching the shared connection.
	mc     *muxConn
	stream uint64

	id           atomic.Pointer[ident]
	gone         atomic.Bool   // dropped; shards ignore later requests
	torn         atomic.Bool   // teardown ran (limbo and drop may both reach it)
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
	// slowDrops, resolved at accept, counts this path: send disconnecting
	// the client because its response buffer overflowed. Nil without a
	// metrics registry. Incremented by whichever goroutine's send overflowed,
	// hence a counter pointer rather than a trip through the control
	// goroutine.
	slowDrops *obs.Counter
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
	// the demux loop interleaves many sessions, so the entry lives with the
	// session rather than the loop.
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

// teardown ends the session's write loop (which closes the connection).
// Idempotent: the limbo path tears a connection down at disconnect, and the
// eventual drop (grace expiry, resume, shutdown) reaches here again.
func (s *session) teardown() {
	s.dead.Store(true)
	if s.quit != nil && s.torn.CompareAndSwap(false, true) {
		close(s.quit)
	}
}

// send enqueues a response without ever blocking its caller, which holds a
// shard's lock: a client too slow to drain its buffer is disconnected rather
// than allowed to stall arbitration for everyone else.
func (s *session) send(r wire.Response) {
	if s.dead.Load() {
		return
	}
	if s.mc != nil {
		s.mc.send(s, r)
		return
	}
	if s.out == nil {
		return
	}
	select {
	case s.out <- r:
	default:
		s.dead.Store(true)
		if s.slowDrops != nil {
			s.slowDrops.Inc()
		}
		s.conn.Close()
	}
}

// replyGone answers a request that reached a dropped session. For plain
// connections this is moot — drop tore the connection down, so the client
// sees the disconnect — but a mux stream's connection outlives the stream,
// and without an error reply the client would hang on the request forever.
func (s *session) replyGone(seq uint64, target string) {
	if s.mc == nil || seq == 0 {
		return
	}
	s.mc.send(s, wire.Response{Seq: seq, Type: wire.TypeResp,
		Err: "session dropped", Code: wire.CodeProtocol, Target: target})
}

// name returns the session's registered application name, or "" before
// register. Safe from any goroutine.
func (s *session) name() string {
	if id := s.id.Load(); id != nil {
		return id.name
	}
	return ""
}

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

// shardSnap is one shard's slice of a stats snapshot, assembled under the
// shard's lock and merged by the control goroutine.
type shardSnap struct {
	target       string
	bindings     int
	arbitrations uint64
	grantsServed uint64

	waitsImmediate uint64
	waitsDeferred  uint64
	convoyWait     float64
	protoWait      float64

	lastDecision string
	lastTime     float64
	hasDecision  bool

	waitHist *wire.Hist // nil unless the server collects metrics

	apps []wire.AppStats
	rep  []metrics.AppResult
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
		// Sessions whose kindConnect envelope was still queued when the
		// loop exited were never adopted by it; tear them down here or
		// their writer goroutines would block forever (and Close would
		// never return). Leftover envelopes of other kinds reference
		// sessions the loop already closed.
		for {
			select {
			case env := <-srv.reqCh:
				if env.kind == kindConnect {
					env.s.gone.Store(true)
					env.s.teardown()
				}
				continue
			default:
			}
			break
		}
	}
	srv.wg.Wait()
	return nil
}

// GrantsServed returns the total number of Wait authorizations served
// across every target. Exact once the server is closed; a snapshot while
// running.
func (srv *Server) GrantsServed() uint64 {
	return srv.Stats().GrantsServed
}

// Stats returns a live metrics snapshot, consistent because each target's
// slice is computed under that target's lock and merged by the control
// goroutine. After Close it returns the final snapshot taken at shutdown;
// on a server that never served the caller plays the control goroutine.
func (srv *Server) Stats() wire.Stats {
	srv.mu.Lock()
	if !srv.serving {
		defer srv.mu.Unlock()
		if srv.closed {
			return srv.final
		}
		// No control goroutine owns the session table, and holding mu keeps
		// a concurrent Serve from starting one mid-snapshot.
		return srv.snapshot(srv.clock())
	}
	srv.mu.Unlock()
	ch := make(chan wire.Stats, 1)
	select {
	case srv.reqCh <- envelope{kind: kindStats, statsCh: ch}:
		select {
		case st := <-ch:
			return st
		case <-srv.loopDone:
		}
	case <-srv.loopDone:
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.final
}

func (srv *Server) startSession(conn net.Conn) {
	srv.wg.Add(1)
	go srv.serveConn(conn)
}

// serveConn owns a freshly accepted connection: it negotiates the wire
// codec first — under the handshake deadline, so a silent connection cannot
// park in negotiation forever — and only then builds the session machinery
// the negotiated mode needs. A mux connection gets a demux loop and a
// shared group-commit write loop; a plain connection gets the classic
// one-session reader/writer pair.
func (srv *Server) serveConn(conn net.Conn) {
	defer srv.wg.Done()
	var rd io.Reader = conn
	var wr io.Writer = conn
	if srv.m != nil {
		rd = countReader{conn, srv.m.bytesIn}
		wr = countWriter{conn, srv.m.bytesOut}
	}
	if d := srv.cfg.HandshakeTimeout; d > 0 {
		conn.SetReadDeadline(time.Now().Add(d))
	}
	br := bufio.NewReader(rd)
	codec, mux, err := srv.negotiate(br, wr)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if srv.m != nil {
				srv.m.handshakeTimeouts.Inc()
			}
			srv.logf("calciomd: dropping unregistered connection: handshake timeout")
		}
		conn.Close()
		return
	}
	if srv.cfg.HandshakeTimeout > 0 {
		conn.SetReadDeadline(time.Time{})
	}
	if srv.m != nil {
		srv.m.conns(codec.Name(), mux).Inc()
	}
	if mux {
		srv.serveMux(conn, br, wr)
		return
	}
	s := srv.newSession(conn, rd, wr)
	s.codec = codec
	if !srv.announce(s) {
		conn.Close()
		return
	}
	srv.wg.Add(1)
	go srv.writeLoop(s)
	srv.readLoop(s, br)
}

// newSession builds a plain (non-mux) session for an accepted connection.
func (srv *Server) newSession(conn net.Conn, rd io.Reader, wr io.Writer) *session {
	buf := srv.cfg.WriteBuffer
	if buf <= 0 {
		buf = 256
	}
	s := &session{conn: conn, rd: rd, wr: wr,
		out: make(chan wire.Response, buf), quit: make(chan struct{})}
	if srv.m != nil {
		s.slowDrops = srv.m.slowDisconnects
	}
	return s
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

// sheddable reports whether a verb may be answered with CodeOverloaded
// under brownout. Advisory verbs only: a shed inform/check/progress/stats
// costs the client a backoff and a retry. State-critical verbs — register,
// prepare/complete, wait, release, end — are always admitted: shedding a
// release or end would wedge the grant pipeline behind a holder the daemon
// itself refused to hear from.
func sheddable(t string) bool {
	switch t {
	case wire.TypeInform, wire.TypeProgress, wire.TypeCheck, wire.TypeStats:
		return true
	}
	return false
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

// shedReply answers one shed request. The response carries no Authorized
// bit — the reader goroutine cannot see shard state — which is why the
// client library ignores the bit on busy/overloaded replies.
func (srv *Server) shedReply(s *session, seq uint64, verb, target string, now float64) {
	if srv.cfg.Events != nil {
		srv.cfg.Events.Emit(obs.Event{Kind: obs.EvShed, Time: now,
			App: s.name(), Target: target})
	}
	s.send(wire.Response{Seq: seq, Type: wire.TypeResp,
		Err:  "overloaded: " + verb + " shed, back off and retry",
		Code: wire.CodeOverloaded, Target: target})
}

// countReader and countWriter sit between a connection and its buffered
// reader/writer, counting wire bytes into registry counters with one atomic
// add per syscall-level read or write.
type countReader struct {
	r io.Reader
	c *obs.Counter
}

func (cr countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	if n > 0 {
		cr.c.Add(uint64(n))
	}
	return n, err
}

type countWriter struct {
	w io.Writer
	c *obs.Counter
}

func (cw countWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.c.Add(uint64(n))
	}
	return n, err
}

// negotiate sniffs the connection's first byte to pick its wire codec. A v1
// JSON client's first byte is always 0x00 (frame lengths are bounded far
// below 1<<24), so anything but wire.HelloMagic falls through to the JSON
// codec with the byte stream untouched. On a hello it consumes the two
// hello bytes, writes the two-byte ack echoing the accepted version (no
// write loop exists yet, so serveConn's goroutine owns the connection), and
// switches the connection to the negotiated codec before the first frame.
// The returned mux flag selects the session-multiplexed framing on top of
// the binary codec (wire.VersionBinaryMux).
func (srv *Server) negotiate(br *bufio.Reader, wr io.Writer) (wire.Codec, bool, error) {
	first, err := br.Peek(1)
	if err != nil {
		return nil, false, err
	}
	if first[0] != wire.HelloMagic {
		return wire.JSON, false, nil
	}
	var hello [2]byte
	if _, err := io.ReadFull(br, hello[:]); err != nil {
		return nil, false, err
	}
	if hello[1] != wire.VersionBinary && hello[1] != wire.VersionBinaryMux {
		return nil, false, fmt.Errorf("unsupported codec version %d", hello[1])
	}
	if _, err := wr.Write(hello[:]); err != nil {
		return nil, false, err
	}
	return wirebin.Codec{}, hello[1] == wire.VersionBinaryMux, nil
}

// readLoop is a plain connection's reader goroutine: it decodes, charges the
// rate limit and routes each request (see route), running coordination verbs
// to completion itself.
func (srv *Server) readLoop(s *session, br *bufio.Reader) {
	dec := s.codec.NewRequestReader(br)
	rl := srv.newRateLimiter()
	for {
		var req wire.Request
		if err := dec.Read(&req); err != nil {
			break
		}
		if req.Seq == 0 {
			break // reserved for pushes; a zero Seq is a client bug
		}
		admit, kill := rl.admit(srv, s, &req)
		if kill {
			break
		}
		if !admit {
			continue
		}
		if !srv.route(s, req) {
			return
		}
	}
	select {
	case srv.reqCh <- envelope{kind: kindDisconnect, s: s}:
	case <-srv.stop:
	}
}

// rateLimiter is a per-connection token bucket, plain locals on the reader
// goroutine: zero allocation, zero locks, refilled from the server clock so
// injected logical clocks keep tests deterministic. Burst equals the rate
// (at least 1), so a client may front-load one second's worth of requests.
// On a mux connection one bucket covers all streams — the limit bounds the
// physical connection, which is what the syscall budget cares about.
type rateLimiter struct {
	limit   float64
	burst   float64
	tokens  float64
	last    float64
	strikes int
}

func (srv *Server) newRateLimiter() rateLimiter {
	limit := srv.cfg.RateLimit
	burst := limit
	if burst < 1 {
		burst = 1
	}
	rl := rateLimiter{limit: limit, burst: burst, tokens: burst}
	if limit > 0 {
		rl.last = srv.clock()
	}
	return rl
}

// admit charges one request against the bucket. A false admit answered the
// request (shed with a retryable warning); kill means sustained abuse and
// the connection must be dropped.
func (rl *rateLimiter) admit(srv *Server, s *session, req *wire.Request) (bool, bool) {
	if rl.limit <= 0 {
		return true, false
	}
	now := srv.clock()
	rl.tokens += (now - rl.last) * rl.limit
	if rl.tokens > rl.burst {
		rl.tokens = rl.burst
	}
	rl.last = now
	if rl.tokens < 1 {
		// Over the limit: one retryable warning, then sustained abuse (a
		// second violation with no compliant request in between)
		// disconnects the client.
		rl.strikes++
		if srv.m != nil {
			srv.m.rateLimited.Inc()
		}
		if rl.strikes > 1 {
			srv.cfg.Events.Emit(obs.Event{Kind: obs.EvRateLimit,
				Time: now, App: s.name(), Queue: int32(rl.strikes)})
			return false, true
		}
		srv.cfg.Events.Emit(obs.Event{Kind: obs.EvRateLimit,
			Time: now, App: s.name(), Queue: 1})
		s.send(wire.Response{Seq: req.Seq, Type: wire.TypeResp,
			Err:  "overloaded: per-connection rate limit exceeded, back off",
			Code: wire.CodeOverloaded, Target: req.Target})
		return false, false
	}
	rl.tokens--
	rl.strikes = 0
	return true, false
}

// route handles one decoded request on the connection's reader goroutine. A
// coordination verb is served right here, under the lock of the shard of the
// target it addresses; register and stats go to the control loop. A
// coordination frame read before the session has an identity — a client
// pipelining ahead of its register response — also goes to the control
// loop, which processes it strictly after the register it was queued behind
// and serves it on the right shard, so the frame is never misrouted to the
// wrong coordination domain. Returns false when the server is stopping.
func (srv *Server) route(s *session, req wire.Request) bool {
	coordination := req.Type != wire.TypeRegister && req.Type != wire.TypeStats
	if coordination && s.id.Load() != nil && s.viaControl.Load() == 0 {
		target := srv.routeTarget(s, req.Target)
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
	if coordination {
		s.viaControl.Add(1)
	} else if req.Type == wire.TypeStats && srv.ctrlShed() {
		if srv.m != nil {
			srv.m.statsSheds.Inc()
		}
		srv.shedReply(s, req.Seq, req.Type, req.Target, srv.clock())
		return true
	}
	select {
	case srv.reqCh <- envelope{kind: kindRequest, s: s, req: req}:
	case <-srv.stop:
		return false
	}
	return true
}

func (srv *Server) writeLoop(s *session) {
	defer srv.wg.Done()
	defer s.conn.Close()
	bw := bufio.NewWriter(s.wr)
	enc := s.codec.NewResponseWriter(bw)
	write := func(resp wire.Response) {
		if err := enc.Write(&resp); err != nil {
			s.dead.Store(true)
		}
		// Batch: flush only when no further response is queued.
		if len(s.out) == 0 {
			if err := bw.Flush(); err != nil {
				s.dead.Store(true)
			}
		}
	}
	for {
		select {
		case resp := <-s.out:
			write(resp)
		case <-s.quit:
			// Drain what arbitration queued before teardown.
			for {
				select {
				case resp := <-s.out:
					write(resp)
					continue
				default:
				}
				return
			}
		}
	}
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

// drop removes a session: its name is freed, every shard detaches its
// binding (unregistering the app and re-arbitrating survivors), and the
// write loop is released. Safe to call once per session; later calls are
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

// snap builds this shard's slice of the stats snapshot: per-binding
// LASSi-style accounting in registration order, the shard aggregates, and
// the latest decision. Runs under the shard's lock.
func (sh *shard) snap(now float64) shardSnap {
	sn := shardSnap{
		target:         sh.target,
		bindings:       len(sh.bindings),
		arbitrations:   sh.arbitrations,
		grantsServed:   sh.grantsServed,
		waitsImmediate: sh.goneWaitsImmediate,
		waitsDeferred:  sh.goneWaitsDeferred,
		convoyWait:     sh.goneConvoyWait,
		protoWait:      sh.goneProtoWait,
	}
	if rec := sh.arb.LastRecord(); rec != nil {
		sn.lastDecision = fmt.Sprintf("t=%.3f allowed=%v %s", rec.Time, rec.Allowed, rec.Reason)
		sn.lastTime = rec.Time
		sn.hasDecision = true
	}
	if sh.m != nil {
		sn.waitHist = histFromSnapshot(sh.m.waitSeconds.Snapshot())
	}
	model := sh.srv.cfg.Model
	for _, a := range sh.arb.Apps() {
		b, ok := a.Data.(*binding)
		if !ok {
			continue
		}
		v := a.View()
		ioTime := b.ioTime
		if v.State != core.Idle {
			ioTime += now - b.phaseStart
		}
		as := wire.AppStats{
			Name:           v.Name,
			Target:         sh.target,
			Cores:          v.Cores,
			State:          v.State.String(),
			Authorized:     a.Authorized(),
			Phases:         b.phases,
			Grants:         b.grants,
			BytesTotal:     v.BytesTotal,
			BytesDone:      v.BytesDone,
			IOTimeS:        ioTime,
			WaitTimeS:      b.waitTime,
			WaitsImmediate: b.waitsImmediate,
			WaitsDeferred:  b.waitsDeferred,
			ConvoyWaitS:    b.convoyWait,
			ProtocolWaitS:  b.protoWait,
		}
		sn.waitsImmediate += b.waitsImmediate
		sn.waitsDeferred += b.waitsDeferred
		sn.convoyWait += b.convoyWait
		sn.protoWait += b.protoWait
		alone := 0.0
		if model != nil {
			// Live interference: observed time for the bytes moved so far
			// versus the model's solo estimate for those bytes.
			if solo := model.SoloTime(v, v.BytesDone); solo > 0 && !math.IsInf(solo, 1) {
				as.Interference = ioTime / solo
				alone = solo
			}
		}
		sn.rep = append(sn.rep, metrics.AppResult{
			Name: v.Name, Cores: v.Cores, IOTime: ioTime, AloneTime: alone,
		})
		sn.apps = append(sn.apps, as)
	}
	return sn
}

// snapshot gathers every shard's slice, each under its lock, and merges.
// Runs on whichever goroutine owns the session table: the control goroutine,
// or the caller on a server that never served.
func (srv *Server) snapshot(now float64) wire.Stats {
	shards := srv.shardsSorted()
	snaps := make([]shardSnap, 0, len(shards))
	for _, sh := range shards {
		sh.mu.Lock()
		snaps = append(snaps, sh.snap(now))
		sh.mu.Unlock()
	}
	return srv.merge(now, snaps)
}

// merge is the combining layer: per-target slices become the existing
// machine-wide wire.Stats shape (top-level counters are sums over targets,
// so single-target output is unchanged) plus the per-target breakdown.
func (srv *Server) merge(now float64, snaps []shardSnap) wire.Stats {
	st := wire.Stats{
		Policy:   srv.cfg.Policy.Name(),
		NowS:     now,
		Sessions: len(srv.sessions),
	}
	rep := metrics.Report{}
	lastTime := math.Inf(-1)
	for i := range snaps {
		sn := &snaps[i]
		st.Arbitrations += sn.arbitrations
		st.GrantsServed += sn.grantsServed
		st.WaitsImmediate += sn.waitsImmediate
		st.WaitsDeferred += sn.waitsDeferred
		st.ConvoyWaitS += sn.convoyWait
		st.ProtocolWaitS += sn.protoWait
		if sn.hasDecision && sn.lastTime > lastTime {
			lastTime = sn.lastTime
			st.LastDecision = sn.lastDecision
		}
		if sn.waitHist != nil {
			if st.WaitHist == nil {
				st.WaitHist = &wire.Hist{
					BoundsS: sn.waitHist.BoundsS,
					Counts:  make([]uint64, len(sn.waitHist.Counts)),
				}
			}
			st.WaitHist.Add(sn.waitHist)
		}
		st.Apps = append(st.Apps, sn.apps...)
		rep.Apps = append(rep.Apps, sn.rep...)
		st.Targets = append(st.Targets, wire.TargetStats{
			Target:         sn.target,
			Apps:           sn.bindings,
			Arbitrations:   sn.arbitrations,
			GrantsServed:   sn.grantsServed,
			WaitsImmediate: sn.waitsImmediate,
			WaitsDeferred:  sn.waitsDeferred,
			ConvoyWaitS:    sn.convoyWait,
			ProtocolWaitS:  sn.protoWait,
			LastDecision:   sn.lastDecision,
			WaitHist:       sn.waitHist,
		})
	}
	sort.Slice(st.Apps, func(i, j int) bool {
		if st.Apps[i].Name != st.Apps[j].Name {
			return st.Apps[i].Name < st.Apps[j].Name
		}
		return st.Apps[i].Target < st.Apps[j].Target
	})
	if len(srv.degraded) > 0 {
		names := make([]string, 0, len(srv.degraded))
		for name := range srv.degraded {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			d := srv.degraded[name]
			st.SelfGrants += d.SelfGrants
			st.DegradedS += d.DegradedS
			st.Degraded = append(st.Degraded, *d)
		}
	}
	st.CPUSecondsWasted = rep.CPUSecondsWasted()
	if srv.cfg.Model != nil {
		st.SumInterference = rep.SumInterferenceFinite()
	}
	return st
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
