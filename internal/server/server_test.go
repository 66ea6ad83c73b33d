package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/wire"
)

// logicalClock returns a deterministic strictly-monotonic clock: each call
// advances time by one microsecond. It is mutex-protected because the
// control and reader goroutines all read the server clock.
func logicalClock() func() float64 {
	var mu sync.Mutex
	var t float64
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		t += 1e-6
		return t
	}
}

// testBinding returns a session's coordination state on the given target.
func testBindingOn(srv *Server, s *session, target string) *binding {
	sh, err := srv.shardFor(target)
	if err != nil {
		panic(err)
	}
	return sh.bindings[s]
}

// testSession is a session on a connection with no writer: up to n of its
// responses queue, for queued to read back.
func testSession(n int) *session {
	return &session{c: &conn{out: make(chan outFrame, n), quit: make(chan struct{})}, stream: 1}
}

// queued drains the responses queued for a testSession.
func queued(s *session) []wire.Response {
	var out []wire.Response
	for {
		select {
		case f := <-s.c.out:
			out = append(out, f.resp)
		default:
			return out
		}
	}
}

// testBinding is testBindingOn for the default target (inline-mode tests
// mostly drive a single shard).
func testBinding(srv *Server, s *session) *binding {
	return testBindingOn(srv, s, "")
}

func startTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Policy == nil {
		cfg.Policy = core.FCFSPolicy{}
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

func dialT(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func info(bytes float64) core.Info {
	in := core.Info{}
	in.SetFloat(core.KeyBytesTotal, bytes)
	return in
}

func TestSinglePhaseLifecycle(t *testing.T) {
	srv, addr := startTestServer(t, Config{})
	c := dialT(t, addr)
	if err := c.Register("A", 64); err != nil {
		t.Fatal(err)
	}
	sess := client.NewSession(c)
	if err := sess.Begin(info(100)); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if ok, err := c.Check(); err != nil || !ok {
		t.Fatalf("Check after Begin = %v, %v; want authorized", ok, err)
	}
	if err := sess.Yield(50); err != nil {
		t.Fatalf("Yield: %v", err)
	}
	if err := sess.End(100); err != nil {
		t.Fatalf("End: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.GrantsServed != 2 { // Begin + Yield each served one wait
		t.Fatalf("grants served = %d, want 2 (stats: %+v)", st.GrantsServed, st)
	}
	if len(st.Apps) != 1 || st.Apps[0].Name != "A" || st.Apps[0].Phases != 1 {
		t.Fatalf("app stats = %+v", st.Apps)
	}
	if st.Apps[0].State != "idle" || st.Apps[0].BytesDone != 100 {
		t.Fatalf("app stats = %+v", st.Apps[0])
	}
	if srv.GrantsServed() != 2 {
		t.Fatalf("server grants = %d", srv.GrantsServed())
	}
}

func TestFCFSSerializesSecondClient(t *testing.T) {
	_, addr := startTestServer(t, Config{Clock: logicalClock()})
	a := dialT(t, addr)
	b := dialT(t, addr)
	if err := a.Register("A", 4); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("B", 4); err != nil {
		t.Fatal(err)
	}
	sa, sb := client.NewSession(a), client.NewSession(b)
	if err := sa.Begin(info(10)); err != nil {
		t.Fatal(err)
	}
	// B informs and waits; the wait must be deferred until A ends.
	if err := b.Prepare(info(10)); err != nil {
		t.Fatal(err)
	}
	if err := b.Inform(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := b.Check(); ok {
		t.Fatal("B authorized while A holds access under fcfs")
	}
	done := make(chan error, 1)
	go func() { done <- b.Wait() }()
	select {
	case err := <-done:
		t.Fatalf("B's Wait returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := sa.End(10); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("B's Wait: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("B never granted after A ended")
	}
	if err := sb.End(10); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolErrors(t *testing.T) {
	_, addr := startTestServer(t, Config{})
	c := dialT(t, addr)

	// Everything but register requires registration.
	if err := c.Inform(); err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("inform unregistered: %v", err)
	}
	if err := c.Register("A", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("A", 1); err == nil || !strings.Contains(err.Error(), "already registered") {
		t.Fatalf("double register: %v", err)
	}
	if err := c.Wait(); err == nil || !strings.Contains(err.Error(), "Wait before Inform") {
		t.Fatalf("wait before inform: %v", err)
	}
	if err := c.Complete(); err == nil || !strings.Contains(err.Error(), "Complete without Prepare") {
		t.Fatalf("complete without prepare: %v", err)
	}
	if err := c.Release(0); err == nil || !strings.Contains(err.Error(), "Release while") {
		t.Fatalf("release while idle: %v", err)
	}

	// Duplicate name from a second connection.
	d := dialT(t, addr)
	if err := d.Register("A", 1); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate name: %v", err)
	}
	// The error must not have killed the session: a fresh name works.
	if err := d.Register("B", 1); err != nil {
		t.Fatalf("register after duplicate error: %v", err)
	}
}

func TestDisconnectOfHolderUnblocksQueue(t *testing.T) {
	_, addr := startTestServer(t, Config{Clock: logicalClock()})
	a := dialT(t, addr)
	b := dialT(t, addr)
	if err := a.Register("A", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("B", 1); err != nil {
		t.Fatal(err)
	}
	if err := client.NewSession(a).Begin(info(10)); err != nil {
		t.Fatal(err)
	}
	if err := b.Prepare(info(10)); err != nil {
		t.Fatal(err)
	}
	if err := b.Inform(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.Wait() }()
	time.Sleep(20 * time.Millisecond)
	a.Close() // the holder vanishes mid-phase
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("B's Wait after holder died: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("B never granted after holder disconnected")
	}
}

func TestInterruptPreemptsHolder(t *testing.T) {
	_, addr := startTestServer(t, Config{Policy: core.InterruptPolicy{}, Clock: logicalClock()})
	a := dialT(t, addr)
	b := dialT(t, addr)
	if err := a.Register("A", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("B", 1); err != nil {
		t.Fatal(err)
	}
	if err := client.NewSession(a).Begin(info(10)); err != nil {
		t.Fatal(err)
	}
	// B arrives later: under interruption it is granted immediately, and A
	// is revoked (observed at A's next coordination point).
	if err := client.NewSession(b).Begin(info(10)); err != nil {
		t.Fatalf("newcomer not granted under interrupt policy: %v", err)
	}
	if ok, _ := a.Check(); ok {
		t.Fatal("holder still authorized after interruption")
	}
	// A pauses at its next yield and resumes when B is done.
	done := make(chan error, 1)
	go func() { done <- client.NewSession(a).Yield(5) }()
	select {
	case err := <-done:
		t.Fatalf("A's Yield returned while B held access: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := client.NewSession(b).End(10); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("A's Yield after B ended: %v", err)
	}
}

func TestSessionTimeoutEviction(t *testing.T) {
	srv, addr := startTestServer(t, Config{SessionTimeout: 50 * time.Millisecond})
	c := dialT(t, addr)
	if err := c.Register("A", 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.Sessions == 0 && len(st.Apps) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("session not evicted: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// A waiting client must NOT be evicted: blocked in Wait is not idle.
	d := dialT(t, addr)
	if err := d.Register("B", 1); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicGivenSerializedOrder replays one serialized request
// sequence against two fresh servers with identical logical clocks and
// requires bit-identical decision logs and stats.
func TestDeterministicGivenSerializedOrder(t *testing.T) {
	run := func() string {
		srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock(),
			Model: &core.PerfModel{FSBandwidth: 1e9, ProcNIC: 1e8}})
		if err != nil {
			t.Fatal(err)
		}
		// Drive the arbitration core directly (no network): three apps
		// interleaving phases in one fixed order.
		ss := make([]*session, 3)
		for i := range ss {
			ss[i] = &session{}
			srv.sessions = map[*session]struct{}{}
			srv.handle(ss[i], wire.Request{Seq: 1, Type: wire.TypeRegister, App: fmt.Sprintf("app-%d", i), Cores: 32})
			srv.handle(ss[i], wire.Request{Seq: 2, Type: wire.TypePrepare, Info: map[string]string{core.KeyBytesTotal: "1000"}})
		}
		for round := 0; round < 5; round++ {
			for _, s := range ss {
				srv.handle(s, wire.Request{Seq: 3, Type: wire.TypeInform})
				srv.handle(s, wire.Request{Seq: 4, Type: wire.TypeWait})
			}
			for _, s := range ss {
				srv.handle(s, wire.Request{Seq: 5, Type: wire.TypeRelease, BytesDone: float64(100 * (round + 1))})
				srv.handle(s, wire.Request{Seq: 6, Type: wire.TypeEnd})
			}
		}
		var sb strings.Builder
		for _, d := range srv.set.Log() {
			fmt.Fprintf(&sb, "t=%.6f allowed=%v %s\n", d.Time, d.Allowed, d.Reason)
		}
		st := srv.snapshot(srv.clock())
		fmt.Fprintf(&sb, "grants=%d arbitrations=%d\n", st.GrantsServed, st.Arbitrations)
		for _, a := range st.Apps {
			fmt.Fprintf(&sb, "%s phases=%d grants=%d done=%.0f\n", a.Name, a.Phases, a.Grants, a.BytesDone)
		}
		return sb.String()
	}
	one, two := run(), run()
	if one != two {
		t.Fatalf("two identical serialized runs diverged:\n--- run 1\n%s--- run 2\n%s", one, two)
	}
	if !strings.Contains(one, "grants=") || strings.Contains(one, "grants=0 ") {
		t.Fatalf("implausible transcript:\n%s", one)
	}
}

// BenchmarkServerArbitrate measures the daemon's arbitration core — request
// handling, policy decision, grant delivery, bounded decision logging —
// without network I/O, under the default configuration (LogBound 256).
// Each iteration retires the current fcfs holder (release + end),
// re-queues it (inform + wait) and serves exactly one deferred grant to
// the next application in line.
func BenchmarkServerArbitrate(b *testing.B) {
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock()})
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
	// Warm the decision-log ring past its bound so the timed region shows
	// the allocation-free steady state of the default config.
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

// TestEndCancelsPendingWait: a pipelined client that tears down its phase
// with a Wait still outstanding must get that Wait failed (not leaked — a
// dangling waitSeq would shield the session from idle eviction forever).
func TestEndCancelsPendingWait(t *testing.T) {
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock()})
	if err != nil {
		t.Fatal(err)
	}
	drain := queued
	a, b := testSession(16), testSession(16)
	srv.handle(a, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "A", Cores: 1})
	srv.handle(b, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "B", Cores: 1})
	srv.handle(a, wire.Request{Seq: 2, Type: wire.TypeInform})
	srv.handle(a, wire.Request{Seq: 3, Type: wire.TypeWait}) // A holds access
	drain(a)
	drain(b)
	srv.handle(b, wire.Request{Seq: 2, Type: wire.TypeInform})
	srv.handle(b, wire.Request{Seq: 3, Type: wire.TypeWait}) // deferred
	if got := drain(b); len(got) != 1 {                      // only the inform response
		t.Fatalf("expected only the inform response before end, got %+v", got)
	}
	srv.handle(b, wire.Request{Seq: 4, Type: wire.TypeEnd})
	if bb := testBinding(srv, b); bb.waitSeq != 0 {
		t.Fatalf("waitSeq still dangling: %d", bb.waitSeq)
	}
	if n := b.pendingWaits.Load(); n != 0 {
		t.Fatalf("pendingWaits still %d after cancelled wait", n)
	}
	got := drain(b)
	if len(got) != 2 {
		t.Fatalf("want cancelled-wait + end responses, got %+v", got)
	}
	if got[0].Seq != 3 || got[0].Err == "" {
		t.Fatalf("pending wait not failed: %+v", got[0])
	}
	if got[1].Seq != 4 || !got[1].OK {
		t.Fatalf("end not acknowledged: %+v", got[1])
	}
}

// TestCloseWaitersBlockUntilTeardown: every Close call — not just the
// first — must return only after the teardown is complete, so a caller
// that saw Serve return can Close and then release resources arbitration
// was using (calciomd's trace writer relies on it).
func TestCloseWaitersBlockUntilTeardown(t *testing.T) {
	srv, addr := startTestServer(t, Config{})
	c := dialT(t, addr)
	if err := c.Register("A", 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Close()
			select {
			case <-srv.loopDone:
			default:
				t.Error("Close returned before the arbitration loop exited")
			}
		}()
	}
	wg.Wait()
}

// TestStatsWithoutServeDoesNotHang: Stats on a server that never served
// must return a zero snapshot instead of blocking forever.
func TestStatsWithoutServeDoesNotHang(t *testing.T) {
	srv, err := New(Config{Policy: core.FCFSPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan wire.Stats, 1)
	go func() { done <- srv.Stats() }()
	select {
	case st := <-done:
		if st.GrantsServed != 0 {
			t.Fatalf("zero snapshot expected, got %+v", st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stats hung on never-served server")
	}
	srv.Close()
}
