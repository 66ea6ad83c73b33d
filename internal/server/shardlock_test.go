package server

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/replay"
	"repro/internal/trace"
)

// delayDaemon is the trace header of a daemon whose policy keeps recheck
// timers live: bare delay, delay(0), decides like fcfs, but while anyone
// queues behind a holder it asks to be re-run when the holder should be done
// (about a millisecond at these sizes). Clients never report progress, so a
// holder never looks done and nobody is let in beside it.
var delayDaemon = trace.Header{Source: trace.SourceDaemon, Policy: "delay", FSMiBps: 1024, ProcNICMiBps: 1024}

// TestShardLockControlPlaneRace is the -race stress test for what the shard
// lock shares: plain and mux connections arbitrate on two targets while
// recheck timers fire, Stats() snapshots every shard, sessions are cut and
// resumed (rebind), idle sessions are evicted (detach), and Drain lands
// mid-burst. It asserts grant conservation (what clients observed, what the
// daemon accounted and what the trace replays to all agree), at most one
// authorized application per target at every recorded step, and an exact
// replay.Verify of every shard.
func TestShardLockControlPlaneRace(t *testing.T) {
	const (
		plainN, muxN, flakyN, idleN = 6, 6, 4, 3
		burst                       = 600 * time.Millisecond
	)
	targets := []string{"t0", "t1"}
	pol, err := delayDaemon.BuildPolicy()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, delayDaemon, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	var evictions atomic.Int32
	srv, addr := startTestServer(t, Config{
		Policy: pol, Model: delayDaemon.Model(), Trace: tw,
		GrantGrace: 100 * time.Millisecond, SessionTimeout: 300 * time.Millisecond,
		Logf: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), "session timeout") {
				evictions.Add(1)
			}
		},
	})
	proxy, err := chaos.New(chaos.Options{Target: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// cycle runs grant cycles on one target until the first error (the
	// drain, for everyone who lasts that long) and returns how many waits
	// were granted. checked also holds the client-side view to "one holder
	// per target" — only sound for sessions that are never cut.
	var overlaps atomic.Int32
	holders := make([]atomic.Int32, len(targets))
	cycle := func(c *client.Client, ti int, checked bool) (grants uint64) {
		tg := c.Target(targets[ti])
		for {
			if tg.Prepare(info(1<<20)) != nil || tg.Inform() != nil || tg.Wait() != nil {
				return grants
			}
			grants++
			if checked {
				if holders[ti].Add(1) > 1 {
					overlaps.Add(1)
				}
				holders[ti].Add(-1)
			}
			// End before Complete: popping the prepared size first would
			// make a holder look finished to the delay policy.
			if tg.Release(0) != nil || tg.End() != nil || tg.Complete() != nil {
				return grants
			}
		}
	}

	var wg sync.WaitGroup
	steady := make(map[string]*uint64) // app name → grants its client observed
	var flakyGrants atomic.Uint64
	launch := func(c *client.Client, name string, ti int) {
		t.Cleanup(func() { c.Close() })
		if err := c.Register(name, 4); err != nil {
			t.Fatal(err)
		}
		n := new(uint64)
		steady[name] = n
		wg.Add(1)
		go func() {
			defer wg.Done()
			*n = cycle(c, ti, true)
		}()
	}
	for i := 0; i < plainN; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		launch(c, fmt.Sprintf("plain-%d", i), i%len(targets))
	}
	for i := 0; i < 2; i++ {
		m, err := client.DialMux(addr, client.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		for j := 0; j < muxN/2; j++ {
			c, err := m.Client()
			if err != nil {
				t.Fatal(err)
			}
			launch(c, fmt.Sprintf("mux-%d-%d", i, j), (i+j)%len(targets))
		}
	}
	// Flaky sessions ride the chaos proxy and reconnect: every cut parks
	// them in limbo and the resume rebinds every shard.
	var flaky []*client.Client
	for i := 0; i < flakyN; i++ {
		c, err := client.DialOptions(proxy.Addr(), client.Options{Reconnect: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		flaky = append(flaky, c)
		if err := c.Register(fmt.Sprintf("flaky-%d", i), 4); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			flakyGrants.Add(cycle(c, i%len(targets), false))
		}(i)
	}
	// Idle sessions touch both targets once and go quiet: the evictor's
	// drop detaches them from both shards under the burst.
	for i := 0; i < idleN; i++ {
		c := dialT(t, addr)
		if err := c.Register(fmt.Sprintf("idle-%d", i), 1); err != nil {
			t.Fatal(err)
		}
		for _, tg := range targets {
			if _, err := c.Target(tg).Check(); err != nil {
				t.Fatal(err)
			}
		}
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // the scrape path: every shard's lock, from outside
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.Stats()
				time.Sleep(time.Millisecond)
			}
		}
	}()
	go func() { // the killer
		defer bg.Done()
		tick := time.NewTicker(40 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				proxy.Cut()
			}
		}
	}()

	time.Sleep(burst)
	srv.Drain() // mid-burst: parked waits fail, new ones are refused
	close(stop)
	bg.Wait()
	// Nothing is granted after Drain, and every grant response is already
	// queued; Close flushes them and fails whatever the clients do next
	// (the reconnecting ones would redial forever, so they are closed).
	srv.Close()
	for _, c := range flaky {
		c.Close()
	}
	wg.Wait()
	final := srv.Stats()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	if n := overlaps.Load(); n != 0 {
		t.Errorf("clients saw two holders on one target %d times", n)
	}
	if evictions.Load() == 0 {
		t.Error("the idle evictor never dropped a session during the burst")
	}
	var steadyGrants uint64
	byName := make(map[string]uint64)
	for _, a := range final.Apps {
		byName[a.Name] += a.Grants
	}
	for name, n := range steady {
		steadyGrants += *n
		if byName[name] != *n {
			t.Errorf("%s: daemon accounted %d grants, client observed %d", name, byName[name], *n)
		}
	}
	if steadyGrants == 0 {
		t.Fatal("no grants were served")
	}
	// A cut can lose a grant's response, never invent one.
	if seen := steadyGrants + flakyGrants.Load(); seen > final.GrantsServed {
		t.Errorf("clients observed %d grants, daemon served %d", seen, final.GrantsServed)
	}
	// Every ledger balances, across the cuts and resumes too: a grant is
	// one immediate or one deferred wait, and the wait time is its convoy
	// and protocol parts (added in another order, hence the tolerance).
	for _, a := range final.Apps {
		if a.Grants != a.WaitsImmediate+a.WaitsDeferred {
			t.Errorf("%s on %q: %d grants, %d immediate + %d deferred waits",
				a.Name, a.Target, a.Grants, a.WaitsImmediate, a.WaitsDeferred)
		}
		if !approx.Equal(a.WaitTimeS, a.ConvoyWaitS+a.ProtocolWaitS, 1e-9) {
			t.Errorf("%s on %q: waited %g s, convoy %g + protocol %g",
				a.Name, a.Target, a.WaitTimeS, a.ConvoyWaitS, a.ProtocolWaitS)
		}
	}
	for _, ts := range final.Targets {
		if ts.WaitsImmediate+ts.WaitsDeferred != ts.GrantsServed {
			t.Errorf("target %q: %d grants served, %d immediate + %d deferred waits",
				ts.Target, ts.GrantsServed, ts.WaitsImmediate, ts.WaitsDeferred)
		}
	}

	tr, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped != 0 {
		t.Fatalf("%d trace events dropped", tr.Dropped)
	}
	// Every step: walk each target's recorded order. A grant authorizes;
	// revoke, end and unregister (a detach, or a rebind's first half) lapse.
	authorized := make(map[string]map[uint32]bool)
	for i, ev := range tr.Events {
		set := authorized[ev.Target]
		if set == nil {
			set = make(map[uint32]bool)
			authorized[ev.Target] = set
		}
		switch ev.Type {
		case trace.EvGrant:
			set[ev.SID] = true
			if len(set) > 1 {
				t.Fatalf("event %d: %d applications authorized on target %q", i, len(set), ev.Target)
			}
		case trace.EvRevoke, trace.EvEnd, trace.EvUnregister:
			delete(set, ev.SID)
		}
	}
	v, err := replay.Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Shards) != len(targets) {
		t.Fatalf("verified %d shards, want %d", len(v.Shards), len(targets))
	}
	for _, sh := range v.Shards {
		if !sh.Match {
			t.Errorf("shard %s diverged on replay: %s", sh.Target, sh.Mismatch)
		}
	}
	// The drain is not a trace event: a wait it failed still looks parked to
	// the replay, which serves it when the holder ahead of it leaves. That is
	// at most one wait per session; every other grant must agree exactly.
	if d := v.GrantsServed - final.GrantsServed; v.GrantsServed < final.GrantsServed || d > plainN+muxN+flakyN {
		t.Errorf("replayed %d grants, daemon served %d", v.GrantsServed, final.GrantsServed)
	}
}

// TestNoRecordAfterClose pins the shutdown guarantee the trace writer's
// owner relies on: shutdown's pass over a shard is the last thing to happen
// on it. A reader whose request waits on the lock when Close starts, and a
// recheck timer that fires while the pass waits for it, may get the lock
// before the pass or after it — the timer possibly after Close has
// returned, since Close waits for readers but not for timers — and after
// it must leave without arbitrating or recording.
func TestNoRecordAfterClose(t *testing.T) {
	pol, err := delayDaemon.BuildPolicy()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, delayDaemon, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTestServer(t, Config{Policy: pol, Model: delayDaemon.Model(), Trace: tw})
	a, b, c := dialT(t, addr), dialT(t, addr), dialT(t, addr)
	for i, cl := range []*client.Client{a, b, c} {
		if err := cl.Register(fmt.Sprintf("app-%d", i), 4); err != nil {
			t.Fatal(err)
		}
	}
	// a holds 32 MiB of work; b queues behind it, which arms a recheck
	// timer about 30 ms out.
	for _, cl := range []*client.Client{a, b} {
		if err := cl.Prepare(info(32 << 20)); err != nil {
			t.Fatal(err)
		}
		if err := cl.Inform(); err != nil {
			t.Fatal(err)
		}
	}
	sh, err := srv.shardFor("")
	if err != nil {
		t.Fatal(err)
	}
	// Hold the lock and queue three parties on it, in this order: c's
	// reader with a request in flight, Close's shutdown pass, the timer
	// once it comes due. The request must be in flight before Close starts:
	// Close's stop tears every connection down, so a request sent after it
	// never reaches a reader. (The sleep only steers the timer behind the
	// pass; the assertions hold in any order.)
	sh.mu.Lock()
	var once sync.Once
	unlock := func() { once.Do(sh.mu.Unlock) }
	// A Fatal below must not leave the cleanup's Close waiting on the lock.
	defer unlock()
	go c.Inform() // answered, or failed when Close tears the connection down
	for deadline := time.Now().Add(5 * time.Second); sh.inflight.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("c's Inform never reached the held shard")
		}
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	<-srv.stop
	time.Sleep(50 * time.Millisecond)
	unlock()
	<-closed
	// The writer's owner closes it right away, as calciomd does. (A closed
	// writer counts what it is handed as dropped, so a late Record shows.)
	handed := tw.Recorded() + tw.Dropped()
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // room for a late timer
	if got := tw.Recorded() + tw.Dropped(); got != handed {
		t.Fatalf("%d events recorded after Close returned", got-handed)
	}
	// Nothing ran after the pass took the final snapshot either: the trace
	// replays to exactly the arbitrations the snapshot counted.
	tr, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("trace closed right after the daemon does not read back: %v", err)
	}
	v, err := replay.Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if final := srv.Stats(); !v.Match || v.Arbitrations != final.Arbitrations {
		t.Fatalf("trace replays to %d arbitrations (match=%v), final snapshot counted %d",
			v.Arbitrations, v.Match, final.Arbitrations)
	}
}

// TestGoroutinesIndependentOfTargets: a shard is state, not a goroutine, so
// touching 64 targets leaves the daemon with exactly the goroutines that
// touching one does.
func TestGoroutinesIndependentOfTargets(t *testing.T) {
	count := func(targets int) int {
		srv, addr := startTestServer(t, Config{})
		defer srv.Close()
		c := dialT(t, addr)
		defer c.Close()
		if err := c.Register("A", 1); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < targets; i++ {
			tg := c.Target(fmt.Sprintf("t%02d", i))
			if err := tg.Inform(); err != nil {
				t.Fatal(err)
			}
			if err := tg.Wait(); err != nil {
				t.Fatal(err)
			}
			if err := tg.Release(0); err != nil {
				t.Fatal(err)
			}
			if err := tg.End(); err != nil {
				t.Fatal(err)
			}
		}
		if got := len(srv.Stats().Targets); got != targets {
			t.Fatalf("daemon has %d shards, want %d", got, targets)
		}
		// Goroutines running daemon code, by their stacks: the accept loop
		// and one reader and one writer per connection. Parked simulator
		// coroutines left by other tests' Layers also show this package's
		// frames; they are not the daemon's, and the collector ends them at
		// its own pace, so they are not counted.
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		n := 0
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "internal/server.(*") && !strings.Contains(g, "iter.Pull") {
				n++
			}
		}
		return n
	}
	one, many := count(1), count(64)
	if one == 0 || one != many {
		t.Fatalf("%d daemon goroutines with 1 target touched, %d with 64", one, many)
	}
}
