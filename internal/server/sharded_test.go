package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/replay"
	"repro/internal/trace"
	"repro/internal/wire"
)

// TestShardedTargetsIsolated drives two targets inline: a deferred waiter
// behind the fcfs holder on target "a" must not delay an arrival on target
// "b", and the merged stats must break the traffic down per target.
func TestShardedTargetsIsolated(t *testing.T) {
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock()})
	if err != nil {
		t.Fatal(err)
	}
	hold, wait, other := testSession(16), testSession(16), testSession(16)
	srv.handle(hold, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "hold", Cores: 1})
	srv.handle(wait, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "wait", Cores: 1})
	srv.handle(other, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "other", Cores: 1})

	srv.handle(hold, wire.Request{Seq: 2, Type: wire.TypeInform, Target: "a"})
	srv.handle(hold, wire.Request{Seq: 3, Type: wire.TypeWait, Target: "a"}) // immediate: holds a
	srv.handle(wait, wire.Request{Seq: 2, Type: wire.TypeInform, Target: "a"})
	srv.handle(wait, wire.Request{Seq: 3, Type: wire.TypeWait, Target: "a"}) // deferred behind hold

	// Target b is a different coordination domain: other is granted at once
	// even though a's arbiter has a queue.
	srv.handle(other, wire.Request{Seq: 2, Type: wire.TypeInform, Target: "b"})
	srv.handle(other, wire.Request{Seq: 3, Type: wire.TypeWait, Target: "b"})
	bo := testBindingOn(srv, other, "b")
	if bo == nil || bo.app.Ledger().WaitsImmediate != 1 || !bo.app.Authorized() {
		t.Fatalf("target b arrival was not served immediately: %+v", bo)
	}
	bw := testBindingOn(srv, wait, "a")
	if !bw.app.Parked() {
		t.Fatal("target a waiter not deferred behind the holder")
	}

	st := srv.snapshot(srv.clock())
	if st.GrantsServed != 2 {
		t.Fatalf("grants = %d, want 2 (hold on a, other on b)", st.GrantsServed)
	}
	if len(st.Targets) != 2 || st.Targets[0].Target != "a" || st.Targets[1].Target != "b" {
		t.Fatalf("target breakdown = %+v", st.Targets)
	}
	if st.Targets[0].GrantsServed != 1 || st.Targets[0].Apps != 2 {
		t.Fatalf("target a breakdown = %+v", st.Targets[0])
	}
	if st.Targets[1].GrantsServed != 1 || st.Targets[1].Apps != 1 {
		t.Fatalf("target b breakdown = %+v", st.Targets[1])
	}
	// Apps rows are per (name, target); the session names appear under
	// their targets only.
	if len(st.Apps) != 3 {
		t.Fatalf("app rows = %+v", st.Apps)
	}
	for _, a := range st.Apps {
		want := "a"
		if a.Name == "other" {
			want = "b"
		}
		if a.Target != want {
			t.Fatalf("app %s on target %q, want %q", a.Name, a.Target, want)
		}
	}

	// Releasing the holder grants the waiter on a; b is untouched.
	srv.handle(hold, wire.Request{Seq: 4, Type: wire.TypeRelease, Target: "a"})
	srv.handle(hold, wire.Request{Seq: 5, Type: wire.TypeEnd, Target: "a"})
	if bw.app.Parked() || !bw.app.Authorized() {
		t.Fatal("target a waiter not granted after holder ended")
	}
}

// TestShardedDefaultTargetRouting: a session registered with a default
// target coordinates there without naming it on every request.
func TestShardedDefaultTargetRouting(t *testing.T) {
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock()})
	if err != nil {
		t.Fatal(err)
	}
	s := testSession(16)
	srv.handle(s, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "A", Cores: 1, Target: "bb0"})
	srv.handle(s, wire.Request{Seq: 2, Type: wire.TypeInform}) // no Target: routes to bb0
	srv.handle(s, wire.Request{Seq: 3, Type: wire.TypeWait})
	if b := testBindingOn(srv, s, "bb0"); b == nil || b.app.Ledger().Grants != 1 {
		t.Fatalf("default-target request did not route to bb0: %+v", b)
	}
	if sh := srv.shards[""]; sh != nil && len(sh.bindings) != 0 {
		t.Fatalf("default shard unexpectedly attached the session")
	}
}

// TestMaxTargetsBound: a client cannot grow the shard set past maxTargets
// — the request naming one target too many is rejected, and no shard is
// created for it.
func TestMaxTargetsBound(t *testing.T) {
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock()})
	if err != nil {
		t.Fatal(err)
	}
	s := testSession(4)
	srv.handle(s, wire.Request{Seq: 1, Type: wire.TypeRegister, App: "A", Cores: 1})
	seq := uint64(1)
	for i := range maxTargets {
		target := fmt.Sprintf("t%d", i)
		seq += 2
		srv.handle(s, wire.Request{Seq: seq - 1, Type: wire.TypeInform, Target: target})
		srv.handle(s, wire.Request{Seq: seq, Type: wire.TypeEnd, Target: target})
		queued(s)
	}
	srv.handle(s, wire.Request{Seq: seq + 1, Type: wire.TypeInform, Target: "one too many"})
	got := queued(s)
	if len(got) != 1 || got[0].Seq != seq+1 || !strings.Contains(got[0].Err, "too many storage targets") {
		t.Fatalf("target %d not rejected: %+v", maxTargets+1, got)
	}
	if len(srv.shards) != maxTargets {
		t.Fatalf("shard set grew past the bound: %d", len(srv.shards))
	}
}

// TestPipelinedRegisterInformNotMisrouted: a client that pipelines
// coordination frames behind its register (without awaiting the response)
// must have those frames land on its registered default target — never
// silently misrouted to the default shard "" — in order: the reader
// finishes the register under the control lock before it decodes the
// inform, and the inform before the wait, so the wait sees the informed
// phase.
func TestPipelinedRegisterInformNotMisrouted(t *testing.T) {
	srv, addr := startTestServer(t, Config{Policy: core.FCFSPolicy{}})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	for _, req := range []wire.Request{
		{Seq: 1, Type: wire.TypeRegister, App: "P", Cores: 1, Target: "x"},
		{Seq: 2, Type: wire.TypeInform},
		{Seq: 3, Type: wire.TypeWait},
		{Seq: 4, Type: wire.TypeRelease, BytesDone: 1},
		{Seq: 5, Type: wire.TypeEnd},
	} {
		if err := wire.Write(bw, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewReader(bufio.NewReader(conn))
	got := map[uint64]wire.Response{}
	for len(got) < 5 {
		var r wire.Response
		if err := dec.Read(&r); err != nil {
			t.Fatal(err)
		}
		if r.Seq != 0 {
			got[r.Seq] = r
		}
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if !got[seq].OK {
			t.Fatalf("pipelined request %d failed: %+v", seq, got[seq])
		}
	}
	for seq := uint64(2); seq <= 5; seq++ {
		if got[seq].Target != "x" {
			t.Fatalf("pipelined request %d not routed to the registered default target: %+v", seq, got[seq])
		}
	}
	st := srv.Stats()
	if len(st.Apps) != 1 || st.Apps[0].Target != "x" || st.Apps[0].Grants != 1 {
		t.Fatalf("session state after pipelined phase: %+v", st.Apps)
	}
}

// shardedClient drives one application on one target through its phases,
// wrapping every exclusively held access step in onGrant/onRelease.
func shardedClient(addr, name, target string, phases, steps int, onGrant, onRelease func()) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.RegisterOn(name, 8, target); err != nil {
		return err
	}
	tg := c.Target(target)
	in := core.Info{}
	in.SetFloat(core.KeyBytesTotal, float64(steps))
	for p := 0; p < phases; p++ {
		if err := tg.Prepare(in); err != nil {
			return err
		}
		if err := tg.Inform(); err != nil {
			return err
		}
		if err := tg.Wait(); err != nil {
			return err
		}
		for s := 0; s < steps; s++ {
			onGrant()
			onRelease()
			if err := tg.Release(float64(s + 1)); err != nil {
				return err
			}
			if s < steps-1 {
				if err := tg.Inform(); err != nil {
					return err
				}
				if err := tg.Wait(); err != nil {
					return err
				}
			}
		}
		if err := tg.Complete(); err != nil {
			return err
		}
		if err := tg.End(); err != nil {
			return err
		}
	}
	return nil
}

// TestStressShardedExactlyOneWriterPerTarget floods a live daemon with K
// targets × N clients under fcfs (the CI race job runs this with -race):
// within each target at most one application may hold an authorized access
// step at any instant, while the targets progress independently.
func TestStressShardedExactlyOneWriterPerTarget(t *testing.T) {
	const targets, clientsPerTarget, phases, steps = 4, 12, 3, 2
	srv, addr := startTestServer(t, Config{Policy: core.FCFSPolicy{}})

	active := make([]atomic.Int32, targets)
	var violations atomic.Int32
	var wg sync.WaitGroup
	errs := make(chan error, targets*clientsPerTarget)
	for ti := 0; ti < targets; ti++ {
		target := fmt.Sprintf("t%d", ti)
		onGrant := func() {
			if n := active[ti].Add(1); n != 1 {
				violations.Add(1)
			}
			time.Sleep(50 * time.Microsecond) // widen the window a little
		}
		onRelease := func() { active[ti].Add(-1) }
		for i := 0; i < clientsPerTarget; i++ {
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				if err := shardedClient(addr, name, target, phases, steps, onGrant, onRelease); err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
				}
			}(fmt.Sprintf("app-%s-%03d", target, i))
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d exactly-one-writer violations within a target under fcfs", v)
	}
	st := srv.Stats()
	want := uint64(targets * clientsPerTarget * phases * steps)
	if st.GrantsServed != want {
		t.Fatalf("grants = %d, want %d", st.GrantsServed, want)
	}
	if len(st.Targets) != targets {
		t.Fatalf("target breakdown has %d entries, want %d: %+v", len(st.Targets), targets, st.Targets)
	}
	per := want / targets
	for _, ts := range st.Targets {
		if ts.GrantsServed != per {
			t.Fatalf("target %s served %d grants, want %d", ts.Target, ts.GrantsServed, per)
		}
	}
}

// TestShardedGrantNeverBlocksOtherTarget pins cross-target independence on
// a live daemon: while a holder sits on target A without releasing, a
// client on target B must complete an entire workload.
func TestShardedGrantNeverBlocksOtherTarget(t *testing.T) {
	_, addr := startTestServer(t, Config{Policy: core.FCFSPolicy{}})

	holder, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := holder.RegisterOn("holder", 8, "A"); err != nil {
		t.Fatal(err)
	}
	ha := holder.Target("A")
	if err := ha.Inform(); err != nil {
		t.Fatal(err)
	}
	if err := ha.Wait(); err != nil {
		t.Fatal(err)
	}
	// A second session queues behind the holder on A, proving A's arbiter
	// really is occupied while B proceeds.
	blocked, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer blocked.Close()
	if err := blocked.RegisterOn("blocked", 8, "A"); err != nil {
		t.Fatal(err)
	}
	if err := blocked.Target("A").Inform(); err != nil {
		t.Fatal(err)
	}
	blockedDone := make(chan error, 1)
	go func() { blockedDone <- blocked.Target("A").Wait() }()

	done := make(chan error, 1)
	go func() {
		done <- shardedClient(addr, "runner", "B", 2, 2, func() {}, func() {})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("target B workload failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("target B workload convoyed behind target A's holder")
	}
	select {
	case err := <-blockedDone:
		t.Fatalf("target A waiter returned while holder held access: %v", err)
	default:
	}
	if err := ha.Release(1); err != nil {
		t.Fatal(err)
	}
	if err := ha.End(); err != nil {
		t.Fatal(err)
	}
	if err := <-blockedDone; err != nil {
		t.Fatalf("target A waiter after holder ended: %v", err)
	}
}

// driveShardedSerialized pushes a fixed multi-target workload through the
// arbitration core inline: apps sessions per target, each running rounds of
// inform/wait + release/end on its own target.
func driveShardedSerialized(srv *Server, targets, apps, rounds int) {
	ss := make(map[string][]*session, targets)
	var order []string
	for ti := 0; ti < targets; ti++ {
		target := fmt.Sprintf("t%d", ti)
		order = append(order, target)
		for i := 0; i < apps; i++ {
			s := &session{}
			srv.handle(s, wire.Request{Seq: 1, Type: wire.TypeRegister,
				App: fmt.Sprintf("app-%s-%d", target, i), Cores: 8, Target: target})
			srv.handle(s, wire.Request{Seq: 2, Type: wire.TypePrepare,
				Info: map[string]string{core.KeyBytesTotal: "1000"}, Target: target})
			ss[target] = append(ss[target], s)
		}
	}
	for round := 0; round < rounds; round++ {
		for _, target := range order {
			for _, s := range ss[target] {
				srv.handle(s, wire.Request{Seq: 3, Type: wire.TypeInform, Target: target})
				srv.handle(s, wire.Request{Seq: 4, Type: wire.TypeWait, Target: target})
			}
		}
		for _, target := range order {
			for _, s := range ss[target] {
				srv.handle(s, wire.Request{Seq: 5, Type: wire.TypeRelease, BytesDone: float64(100 * (round + 1)), Target: target})
				srv.handle(s, wire.Request{Seq: 6, Type: wire.TypeEnd, Target: target})
			}
		}
	}
}

// TestRecordShardedVerifiesPerTarget is the sharded determinism acceptance
// test in miniature: a recorded multi-target fcfs run must verify per
// target — each shard's replayed grant sequence equals its recorded one —
// and the per-target grant counts must come out exact.
func TestRecordShardedVerifiesPerTarget(t *testing.T) {
	const targets, apps, rounds = 3, 2, 4
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, trace.Header{Source: trace.SourceDaemon, Policy: "fcfs"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Policy: core.FCFSPolicy{}, Clock: logicalClock(), Trace: w})
	if err != nil {
		t.Fatal(err)
	}
	driveShardedSerialized(srv, targets, apps, rounds)
	st := srv.snapshot(srv.clock())
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	v, err := replay.Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Match {
		t.Fatalf("sharded replay diverged from recording: %s", v.Mismatch)
	}
	if len(v.Shards) != targets {
		t.Fatalf("verified %d shards, want %d", len(v.Shards), targets)
	}
	per := uint64(apps * rounds)
	for _, sh := range v.Shards {
		if !sh.Match {
			t.Fatalf("shard %s mismatched: %s", sh.Target, sh.Mismatch)
		}
		if sh.GrantsServed != per {
			t.Fatalf("shard %s replayed %d grants, want %d", sh.Target, sh.GrantsServed, per)
		}
	}
	if v.GrantsServed != st.GrantsServed {
		t.Fatalf("replayed grants = %d, live = %d", v.GrantsServed, st.GrantsServed)
	}
	if v.Arbitrations != st.Arbitrations {
		t.Fatalf("replayed arbitrations = %d, live = %d", v.Arbitrations, st.Arbitrations)
	}
	// The merged per-app decomposition must agree with the live snapshot:
	// both are sorted by (name, target).
	if len(st.Apps) != len(v.Apps) {
		t.Fatalf("apps: live %d, replay %d", len(st.Apps), len(v.Apps))
	}
	for i, la := range st.Apps {
		ra := v.Apps[i]
		if la.Name != ra.Name || la.Target != ra.Target || la.Grants != ra.Grants ||
			la.WaitsImmediate != ra.WaitsImmediate || la.WaitsDeferred != ra.WaitsDeferred ||
			la.ConvoyWaitS != ra.ConvoyWaitS || la.ProtocolWaitS != ra.ProtocolWaitS {
			t.Fatalf("app %d decomposition diverged:\nlive   %+v\nreplay %+v", i, la, ra)
		}
	}
}

// BenchmarkServerArbitrateSharded measures aggregate grant throughput for
// one fixed fleet — 64 sessions cycling release/end/inform/wait, the
// BenchmarkServerArbitrate shape — sharded across storage targets, with one
// driving goroutine per target (the daemon's per-shard arbitration
// goroutines without the network). targets=1 is the single-goroutine
// baseline: all 64 sessions in one arbiter. Since the arbiter keeps its
// queue across decisions a grant costs about the same at every queue depth,
// so sharding scales the aggregate one way only: the shards run
// concurrently on however many cores the machine offers.
func BenchmarkServerArbitrateSharded(b *testing.B) {
	const fleet = 64
	for _, targets := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("targets=%d", targets), func(b *testing.B) {
			var tick atomic.Int64
			srv, err := New(Config{Policy: core.FCFSPolicy{},
				Clock: func() float64 { return float64(tick.Add(1)) * 1e-6 }})
			if err != nil {
				b.Fatal(err)
			}
			k := fleet / targets // sessions per target
			sess := make([][]*session, targets)
			for ti := 0; ti < targets; ti++ {
				sess[ti] = make([]*session, k)
				for i := range sess[ti] {
					s := &session{}
					sess[ti][i] = s
					srv.handle(s, wire.Request{Seq: 1, Type: wire.TypeRegister,
						App: fmt.Sprintf("app-%d-%02d", ti, i), Cores: 64, Target: fmt.Sprintf("t%d", ti)})
					srv.handle(s, wire.Request{Seq: 2, Type: wire.TypePrepare,
						Info: map[string]string{core.KeyBytesTotal: "1000000"}})
					srv.handle(s, wire.Request{Seq: 3, Type: wire.TypeInform})
					srv.handle(s, wire.Request{Seq: 4, Type: wire.TypeWait})
				}
			}
			cycle := func(ti, n int) {
				s := sess[ti][n%k]
				srv.handle(s, wire.Request{Seq: 5, Type: wire.TypeRelease})
				srv.handle(s, wire.Request{Seq: 6, Type: wire.TypeEnd})
				srv.handle(s, wire.Request{Seq: 7, Type: wire.TypeInform})
				srv.handle(s, wire.Request{Seq: 8, Type: wire.TypeWait})
			}
			for ti := 0; ti < targets; ti++ {
				for n := 0; n < 128; n++ {
					cycle(ti, n) // warm each shard's decision-log ring
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for ti := 0; ti < targets; ti++ {
				iters := b.N / targets
				if ti < b.N%targets {
					iters++
				}
				wg.Add(1)
				go func(ti, iters int) {
					defer wg.Done()
					for n := 0; n < iters; n++ {
						cycle(ti, n)
					}
				}(ti, iters)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "grants/s")
		})
	}
}
