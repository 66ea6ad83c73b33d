package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestMaxSessionsAdmission: the MaxSessions bound rejects the registration
// past capacity with the retryable busy code, and a freed slot admits the
// next attempt.
func TestMaxSessionsAdmission(t *testing.T) {
	srv, addr := startTestServer(t, Config{MaxSessions: 2, Metrics: obs.NewRegistry()})
	a := dialT(t, addr)
	b := dialT(t, addr)
	if err := a.Register("A", 4); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("B", 4); err != nil {
		t.Fatal(err)
	}
	c := dialT(t, addr)
	err := c.Register("C", 4)
	var re *client.ReplyError
	if !errors.As(err, &re) || re.Code != wire.CodeBusy {
		t.Fatalf("register over the bound = %v, want a %q reply", err, wire.CodeBusy)
	}
	if !wire.Retryable(re.Code) {
		t.Fatal("busy must be retryable: clients back off instead of failing")
	}
	if got := srv.m.busyRejects.Value(); got != 1 {
		t.Fatalf("busy rejects counter = %d, want 1", got)
	}
	// Freeing a slot (default grace 0: the disconnect drops the session
	// immediately) admits the next registration. The disconnect is processed
	// asynchronously, so poll with fresh connections.
	a.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d := dialT(t, addr)
		if err := d.Register("D", 4); err == nil {
			break
		}
		d.Close()
		if time.Now().After(deadline) {
			t.Fatal("slot never freed after a session disconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHandshakeTimeout: a connection that never registers is dropped at the
// deadline (the slow-loris guard), while a registered session is untouched
// by it.
func TestHandshakeTimeout(t *testing.T) {
	srv, addr := startTestServer(t, Config{
		HandshakeTimeout: 30 * time.Millisecond, Metrics: obs.NewRegistry()})
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	var buf [1]byte
	if _, err := raw.Read(buf[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("unregistered connection survived the handshake deadline (read: %v)", err)
	}
	if got := srv.m.handshakeTimeouts.Value(); got != 1 {
		t.Fatalf("handshake timeouts counter = %d, want 1", got)
	}
	// A session that registers in time keeps its connection past the
	// deadline: the timer is disarmed at register.
	c := dialT(t, addr)
	if err := c.Register("A", 4); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	if err := c.Target("").Inform(); err != nil {
		t.Fatalf("registered session dropped after the handshake deadline: %v", err)
	}
}

// TestShedHysteresis drives the brownout water marks directly on the
// in-flight count that shards and the control lock share: shedding starts
// at the high-water mark, persists through the band between the marks, and
// stops at the low-water mark — at the next shed check, or when the request
// whose departure drains the count leaves.
func TestShedHysteresis(t *testing.T) {
	var b brownout
	b.inflight.Store(shedHiWater - 1)
	if b.shed() {
		t.Fatalf("%d in flight (below hi-water %d) must not shed", b.inflight.Load(), shedHiWater)
	}
	b.inflight.Add(1)
	if !b.shed() {
		t.Fatalf("%d in flight (at hi-water) must shed", b.inflight.Load())
	}
	b.inflight.Store(shedLoWater + 1)
	if !b.shed() {
		t.Fatalf("%d in flight (between the marks) must stay in brownout", b.inflight.Load())
	}
	b.inflight.Add(-1)
	if b.shed() {
		t.Fatalf("%d in flight (at lo-water %d) must exit brownout", b.inflight.Load(), shedLoWater)
	}
	if b.hot.Load() {
		t.Fatal("hot bit must clear when brownout exits")
	}
	b.inflight.Store(shedHiWater)
	b.shed()
	b.inflight.Store(shedLoWater + 1)
	b.leave()
	if b.hot.Load() {
		t.Fatal("the request whose departure drains the count must clear the hot bit")
	}
}

// TestBrownoutEndToEnd piles shedHiWater plain connections onto one shard
// whose lock the test holds — each connection's reader blocked with one
// request in flight, the pile-up the in-flight count exists to see — and
// checks the brownout from outside: advisory verbs are answered overloaded
// without joining the wait, state-critical verbs are admitted and complete
// once the lock frees, and /healthz flips to overloaded and back. Then the
// same connections pile stats requests onto the control lock, and stats is
// shed the same way.
func TestBrownoutEndToEnd(t *testing.T) {
	srv, addr := startTestServer(t, Config{Policy: core.InterferePolicy{}, Metrics: obs.NewRegistry()})
	ts := httptest.NewServer((&obs.Admin{Health: srv.Health}).Handler())
	defer ts.Close()
	healthz := func() string {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		return strings.TrimSpace(string(body))
	}
	register := func(name string) *client.Client {
		c := dialT(t, addr)
		if err := c.Register(name, 1); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Staged before the pile-up, one per state-critical verb: under the
	// interfere policy everyone is authorized, so the waiter needs only its
	// wait, the holder its release, the third its end.
	probe, waiter, holder, ender := register("probe"), register("waiter"), register("holder"), register("ender")
	for _, c := range []*client.Client{waiter, holder, ender} {
		if err := c.Inform(); err != nil {
			t.Fatal(err)
		}
	}
	if err := holder.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := healthz(); got != "serving" {
		t.Fatalf("/healthz before the pile-up: %q", got)
	}

	sh, err := srv.shardFor("")
	if err != nil {
		t.Fatal(err)
	}
	sh.mu.Lock()
	locked := true
	defer func() {
		if locked {
			sh.mu.Unlock()
		}
	}()
	piled := make(chan error, shedHiWater)
	pile := make([]*client.Client, shedHiWater)
	for i := range pile {
		c := register(fmt.Sprintf("pile-%03d", i))
		pile[i] = c
		go func() { piled <- c.Prepare(info(1)) }()
	}
	deadline := time.Now().Add(10 * time.Second)
	for sh.inflight.Load() < shedHiWater {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests in flight, want %d", sh.inflight.Load(), shedHiWater)
		}
		time.Sleep(time.Millisecond)
	}

	// Advisory verbs: shed at once, by the reader, without the lock.
	var re *client.ReplyError
	if err := probe.Inform(); !errors.As(err, &re) || re.Code != wire.CodeOverloaded {
		t.Fatalf("inform under brownout = %v, want a %q reply", err, wire.CodeOverloaded)
	}
	if _, err := probe.Check(); !errors.As(err, &re) || re.Code != wire.CodeOverloaded {
		t.Fatalf("check under brownout = %v, want a %q reply", err, wire.CodeOverloaded)
	}
	if err := probe.Progress(1); !errors.As(err, &re) || re.Code != wire.CodeOverloaded {
		t.Fatalf("progress under brownout = %v, want a %q reply", err, wire.CodeOverloaded)
	}
	if got := sh.m.sheds.Value(); got != 3 {
		t.Fatalf("sheds counter = %d, want 3", got)
	}
	if got := healthz(); got != "overloaded" {
		t.Fatalf("/healthz under brownout: %q", got)
	}
	// State-critical verbs: admitted — they join the wait for the lock.
	critical := make(chan error, 3)
	go func() { critical <- waiter.Wait() }()
	go func() { critical <- holder.Release(0) }()
	go func() { critical <- ender.End() }()
	for sh.inflight.Load() < shedHiWater+3 {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests in flight, want the %d piled plus wait, release and end",
				sh.inflight.Load(), shedHiWater)
		}
		time.Sleep(time.Millisecond)
	}

	sh.mu.Unlock()
	locked = false
	for i := 0; i < 3; i++ {
		if err := <-critical; err != nil {
			t.Fatalf("state-critical verb under brownout: %v", err)
		}
	}
	for i := 0; i < shedHiWater; i++ {
		if err := <-piled; err != nil {
			t.Fatalf("piled request: %v", err)
		}
	}
	// Drained: the last request out cleared the brownout bit, with no
	// advisory verb needed to re-evaluate it.
	if got := healthz(); got != "serving" {
		t.Fatalf("/healthz after the pile-up drained: %q", got)
	}
	if err := probe.Inform(); err != nil {
		t.Fatalf("inform after recovery: %v", err)
	}

	// The control lock: stats requests pile up on it like coordination
	// verbs on a shard, and past the high mark stats is shed.
	srv.ctl.mu.Lock()
	ctlLocked := true
	defer func() {
		if ctlLocked {
			srv.ctl.mu.Unlock()
		}
	}()
	stats := make(chan error, len(pile))
	for _, c := range pile {
		go func() {
			_, err := c.Stats()
			stats <- err
		}()
	}
	deadline = time.Now().Add(10 * time.Second)
	for srv.ctl.inflight.Load() < shedHiWater {
		if time.Now().After(deadline) {
			t.Fatalf("only %d stats requests in flight on the control lock, want %d",
				srv.ctl.inflight.Load(), shedHiWater)
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := probe.Stats(); !errors.As(err, &re) || re.Code != wire.CodeOverloaded {
		t.Fatalf("stats under control-lock brownout = %v, want a %q reply", err, wire.CodeOverloaded)
	}
	if got := srv.m.statsSheds.Value(); got != 1 {
		t.Fatalf("stats sheds counter = %d, want 1", got)
	}
	if got := healthz(); got != "overloaded" {
		t.Fatalf("/healthz under control-lock brownout: %q", got)
	}
	srv.ctl.mu.Unlock()
	ctlLocked = false
	for range pile {
		if err := <-stats; err != nil {
			t.Fatalf("piled stats request: %v", err)
		}
	}
	if got := healthz(); got != "serving" {
		t.Fatalf("/healthz after the control-lock pile-up drained: %q", got)
	}
}

// TestDrainCoversShardsCreatedLater: Drain refuses new Waits on every
// shard, including one the daemon creates after Drain ran.
func TestDrainCoversShardsCreatedLater(t *testing.T) {
	srv, addr := startTestServer(t, Config{})
	c := dialT(t, addr)
	if err := c.Register("A", 1); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	fresh := c.Target("fresh")
	if err := fresh.Inform(); err != nil {
		t.Fatal(err)
	}
	var re *client.ReplyError
	if err := fresh.Wait(); !errors.As(err, &re) || re.Code != wire.CodeDraining {
		t.Fatalf("wait on a target first touched after Drain = %v, want a %q reply", err, wire.CodeDraining)
	}
}

// TestSheddableVerbs pins the never-shed set: state-critical verbs are
// always admitted, advisory verbs may be shed.
func TestSheddableVerbs(t *testing.T) {
	for _, v := range []string{wire.TypeRegister, wire.TypePrepare, wire.TypeComplete,
		wire.TypeWait, wire.TypeRelease, wire.TypeEnd} {
		if sheddable(v) {
			t.Errorf("%s is state-critical and must never shed", v)
		}
	}
	for _, v := range []string{wire.TypeInform, wire.TypeProgress, wire.TypeCheck, wire.TypeStats} {
		if !sheddable(v) {
			t.Errorf("%s is advisory and must be sheddable", v)
		}
	}
}

// TestRateLimitWarnsThenDisconnects: the first over-limit request gets one
// retryable overloaded reply; a second violation with no compliant request
// in between disconnects the connection. The logical clock makes refill
// negligible, so with RateLimit 1 the register consumes the whole burst.
func TestRateLimitWarnsThenDisconnects(t *testing.T) {
	srv, addr := startTestServer(t, Config{
		RateLimit: 1, Clock: logicalClock(), Metrics: obs.NewRegistry()})
	c := dialT(t, addr)
	if err := c.Register("A", 4); err != nil {
		t.Fatal(err)
	}
	_, err := c.Check()
	var re *client.ReplyError
	if !errors.As(err, &re) || re.Code != wire.CodeOverloaded {
		t.Fatalf("first over-limit request = %v, want a %q reply", err, wire.CodeOverloaded)
	}
	if !wire.Retryable(re.Code) {
		t.Fatal("overloaded must be retryable")
	}
	// Sustained abuse: the next over-limit request kills the connection (a
	// transport error, not another reply).
	_, err = c.Check()
	if err == nil {
		t.Fatal("second over-limit request must fail")
	}
	if errors.As(err, &re) {
		t.Fatalf("second violation should disconnect, not reply (got %q)", re.Code)
	}
	if got := srv.m.rateLimited.Value(); got != 2 {
		t.Fatalf("rate-limited counter = %d, want 2", got)
	}
}

// TestSlowClientDisconnect: a session whose write buffer overflows is cut
// off and counted in calciomd_slow_disconnects_total, and with a grace
// window configured the subsequent disconnect parks the session in limbo —
// name reserved, grants intact — instead of revoking immediately. Driven
// inline with a 1-slot buffer and no write loop, so the overflow is
// deterministic.
func TestSlowClientDisconnect(t *testing.T) {
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock(),
		GrantGrace: time.Hour, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	srv.writeBuffer = 1
	cconn, sconn := net.Pipe()
	defer cconn.Close()
	s := &session{c: &conn{srv: srv, nc: sconn, max: 1, quit: make(chan struct{})}}
	srv.sessions[s] = struct{}{}
	srv.handle(s, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "A", Cores: 4}) // fills the only slot
	srv.handle(s, wire.Request{Seq: 2, Type: wire.TypeInform})                       // overflows it
	if got := srv.m.slowDisconnects.Value(); got != 1 {
		t.Fatalf("slow disconnects counter = %d, want 1", got)
	}
	cconn.SetReadDeadline(time.Now().Add(time.Second))
	var buf [1]byte
	if _, err := cconn.Read(buf[:]); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("overflow must close the connection (read: %v)", err)
	}
	// The reader reports the dead connection; with a grace window the
	// session enters limbo rather than being dropped.
	srv.disconnect(s)
	if !s.limbo {
		t.Fatal("slow disconnect with grace configured must park the session in limbo")
	}
	if _, reserved := srv.names["A"]; !reserved {
		t.Fatal("name must stay reserved through the grace window")
	}
	if bb := testBinding(srv, s); bb == nil || !bb.app.Authorized() {
		t.Fatal("the slow client's grant must survive into the grace window, not be revoked immediately")
	}
}

// TestWritePathIsolation: a client that stops reading costs only its own
// connection, end to end. Responses leave on the goroutine that made them,
// so the two ways of producing them are covered: pushes produced on another
// connection's reader (the stalled client's writer blocks, its queue
// overflows, and it is cut off and counted), and the stalled client's own
// replies (its reader blocks writing them and reads nothing more — TCP
// pushes back on that client alone, and nobody is cut off). Either way
// another connection's grant cycles on the same target keep completing.
// Small socket buffers make the stall arrive within a few hundred frames:
// the stalled client's receive buffer, and both of the daemon's on every
// connection it accepts (see smallBufServer).
func TestWritePathIsolation(t *testing.T) {
	// stalled dials a raw v1 connection, writes frames and never reads. Its
	// receive buffer is shrunk before it connects, so the window it
	// advertises is small from the first segment on.
	stalled := func(t *testing.T, addr string, reqs ...wire.Request) net.Conn {
		d := net.Dialer{Control: func(_, _ string, rc syscall.RawConn) error {
			return rc.Control(func(fd uintptr) {
				syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF, 4096)
			})
		}}
		nc, err := d.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		for _, req := range reqs {
			if err := wire.Write(nc, req); err != nil {
				t.Fatal(err)
			}
		}
		return nc
	}
	// cycles runs n grant cycles on target x, each within a deadline.
	cycles := func(t *testing.T, c *client.Client, n int) {
		t.Helper()
		tg := c.Target("x")
		for i := 0; i < n; i++ {
			done := make(chan error, 1)
			go func() {
				err := tg.Inform()
				if err == nil {
					err = tg.Wait()
				}
				if err == nil {
					err = tg.Release(0)
				}
				if err == nil {
					err = tg.End()
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("cycle %d: %v", i, err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("cycle %d stalled behind a client that does not read", i)
			}
		}
	}

	t.Run("pushes", func(t *testing.T) {
		// Under interrupt every inform of C's revokes R's authorization and
		// every end of C's gives it back: two pushes to R per cycle, all
		// produced on C's reader while R's reader sits in Read.
		srv, addr := smallBufServer(t, Config{Policy: core.InterruptPolicy{},
			Metrics: obs.NewRegistry()}, 8)
		stalled(t, addr,
			wire.Request{Seq: 1, Type: wire.TypeRegister, App: "R", Cores: 1, Target: "x"},
			wire.Request{Seq: 2, Type: wire.TypeInform})
		c := dialT(t, addr)
		if err := c.Register("C", 1); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(20 * time.Second)
		for srv.m.slowDisconnects.Value() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("a client that never reads its pushes was never cut off")
			}
			cycles(t, c, 10)
		}
		cycles(t, c, 10)
		if got := srv.m.slowDisconnects.Value(); got != 1 {
			t.Fatalf("calciomd_slow_disconnects_total = %d, want 1", got)
		}
	})

	t.Run("pipelining", func(t *testing.T) {
		srv, addr := smallBufServer(t, Config{Metrics: obs.NewRegistry()}, 0)
		p := stalled(t, addr, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "P", Cores: 1})
		// Checks on the contended target: far more replies than the
		// sockets between the two ends can hold.
		var frames bytes.Buffer
		for seq := uint64(2); frames.Len() < 4<<20; seq++ {
			wire.Write(&frames, wire.Request{Seq: seq, Type: wire.TypeCheck, Target: "x"})
		}
		go p.Write(frames.Bytes())
		// P's reader ends up blocked writing P's replies, holding no lock,
		// and for good: nothing more leaves the daemon.
		deadline := time.Now().Add(20 * time.Second)
		for out := uint64(0); !blockedWriting() || srv.m.bytesOut.Value() != out; {
			if time.Now().After(deadline) {
				t.Fatal("the reader of a client that never reads never blocked writing its replies")
			}
			out = srv.m.bytesOut.Value()
			time.Sleep(200 * time.Millisecond)
		}
		c := dialT(t, addr)
		if err := c.Register("C", 1); err != nil {
			t.Fatal(err)
		}
		cycles(t, c, 200)
		if got := srv.m.slowDisconnects.Value(); got != 0 {
			t.Fatalf("calciomd_slow_disconnects_total = %d: a client that only stalls itself must not be cut off", got)
		}
		// Nor does shutdown wait for it forever.
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close hangs behind a client that does not read")
		}
	})
}

// smallBufServer is startTestServer with 4096-byte kernel read and write
// buffers on every connection the daemon accepts, set before Serve sees it,
// and with the daemon's write queue bound at writeBuffer responses (0 keeps
// the default).
func smallBufServer(t *testing.T, cfg Config, writeBuffer int) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return startTestServerOn(t, cfg, smallBufListener{ln}, writeBuffer)
}

// smallBufListener shrinks both kernel buffers of each accepted connection.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetReadBuffer(4096)
		tc.SetWriteBuffer(4096)
	}
	return c, err
}

// blockedWriting reports whether some connection's reader is blocked in a
// socket write, flushing its replies before it reads again.
func blockedWriting() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "server.flushReader.Read") && strings.Contains(g, "poll.(*FD).Write") {
			return true
		}
	}
	return false
}

// BenchmarkServerArbitrateLimited is BenchmarkServerArbitrate with the whole
// overload-protection layer configured (session bound, handshake deadline,
// rate limit, metrics): the arbitration hot path must stay allocation-free
// with limits enabled, because admission and rate limiting live on the
// register path and the reader goroutines, not in the arbitration core.
func BenchmarkServerArbitrateLimited(b *testing.B) {
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock(),
		MaxSessions: 64, HandshakeTimeout: time.Hour, RateLimit: 1e9,
		Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	const k = 16
	ss := make([]*session, k)
	for i := range ss {
		ss[i] = &session{}
		srv.handle(ss[i], wire.Request{Seq: 1, Type: wire.TypeRegister, App: fmt.Sprintf("app-%02d", i), Cores: 64})
		srv.handle(ss[i], wire.Request{Seq: 2, Type: wire.TypePrepare, Info: map[string]string{core.KeyBytesTotal: "1000000"}})
		srv.handle(ss[i], wire.Request{Seq: 3, Type: wire.TypeInform})
		srv.handle(ss[i], wire.Request{Seq: 4, Type: wire.TypeWait})
	}
	cycle := func(holder int) {
		s := ss[holder]
		srv.handle(s, wire.Request{Seq: 5, Type: wire.TypeRelease})
		srv.handle(s, wire.Request{Seq: 6, Type: wire.TypeEnd})
		srv.handle(s, wire.Request{Seq: 7, Type: wire.TypeInform})
		srv.handle(s, wire.Request{Seq: 8, Type: wire.TypeWait})
	}
	for n := 0; n < 128; n++ {
		cycle(n % k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		cycle(n % k)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "grants/s")
}
