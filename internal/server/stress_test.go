package server

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/trace"
)

// stressClient drives one application through its phases with raw
// coordination calls, invoking onGrant/onRelease around every exclusively
// held access step. A non-nil hold keeps the connection open after the work
// is done (onDone is called at that point) until the channel is closed, so
// tests can snapshot stats with all sessions still registered.
func stressClient(t *testing.T, addr, name string, phases, steps int,
	onGrant, onRelease func(), onDone func(), hold <-chan struct{}) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	if hold != nil {
		defer func() { <-hold }()
	}
	if onDone != nil {
		defer onDone()
	}
	if err := c.Register(name, 32); err != nil {
		return err
	}
	in := core.Info{}
	in.SetFloat(core.KeyBytesTotal, float64(steps))
	for p := 0; p < phases; p++ {
		if err := c.Prepare(in); err != nil {
			return err
		}
		if err := c.Inform(); err != nil {
			return err
		}
		if err := c.Wait(); err != nil {
			return err
		}
		for s := 0; s < steps; s++ {
			onGrant()
			onRelease()
			if err := c.Release(float64(s + 1)); err != nil {
				return err
			}
			if s < steps-1 {
				if err := c.Inform(); err != nil {
					return err
				}
				if err := c.Wait(); err != nil {
					return err
				}
			}
		}
		if err := c.Complete(); err != nil {
			return err
		}
		if err := c.End(); err != nil {
			return err
		}
	}
	return nil
}

// TestStressFCFSExactlyOneWriter floods the daemon with concurrent sessions
// issuing interleaved Prepare/Wait/Release and asserts the fcfs invariant:
// at any instant at most one application holds an authorized access step.
// Run with -race (the CI race job does) to also exercise the readers
// sharing a shard under its lock.
func TestStressFCFSExactlyOneWriter(t *testing.T) {
	const clients, phases, steps = 48, 3, 3
	_, addr := startTestServer(t, Config{Policy: core.FCFSPolicy{}})

	var active atomic.Int32
	var violations atomic.Int32
	onGrant := func() {
		if n := active.Add(1); n != 1 {
			violations.Add(1)
		}
		time.Sleep(50 * time.Microsecond) // widen the window a little
	}
	onRelease := func() { active.Add(-1) }

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := stressClient(t, addr, fmt.Sprintf("app-%03d", i), phases, steps, onGrant, onRelease, nil, nil); err != nil {
				errs <- fmt.Errorf("app-%03d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d exactly-one-writer violations under fcfs", v)
	}
}

// TestStressInterruptSingleAuthorization runs the same flood under the
// interruption policy. Here the one-writer guarantee is weaker by design —
// a preempted holder pauses only at its next coordination point (paper
// §III-A2) — so the invariant is checked where it does hold: every decision
// authorizes at most one application, and every session completes. The
// decisions are read back from the shard's recorded trace, where each one
// is the run of grants and revokes it flipped: once the run is in, at most
// one application may hold authorization.
func TestStressInterruptSingleAuthorization(t *testing.T) {
	const clients, phases, steps = 32, 2, 3
	var buf bytes.Buffer
	tw, err := trace.NewWriter(&buf, trace.Header{Source: trace.SourceDaemon, Policy: "interrupt"}, 1<<18)
	if err != nil {
		t.Fatal(err)
	}
	srv, addr := startTestServer(t, Config{Policy: core.InterruptPolicy{}, Trace: tw})

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := stressClient(t, addr, fmt.Sprintf("app-%03d", i), phases, steps, func() {}, func() {}, nil, nil); err != nil {
				errs <- fmt.Errorf("app-%03d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := srv.Stats()
	if want := uint64(clients * phases * steps); st.GrantsServed != want {
		t.Fatalf("grants served = %d, want %d", st.GrantsServed, want)
	}
	srv.Close() // quiesce the shards before reading the trace
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Dropped != 0 {
		t.Fatalf("%d trace events dropped", tr.Dropped)
	}
	// A grant authorizes; revoke, end and unregister lapse. A target's
	// decision is complete at its next event that is no flip.
	authorized := make(map[string]map[uint32]bool)
	open := make(map[string]bool) // a decision's flips are in, not yet checked
	decisions := 0
	check := func(target string) {
		decisions++
		if n := len(authorized[target]); n > 1 {
			t.Fatalf("an interrupt decision left %d applications authorized on target %q (want at most one)", n, target)
		}
		open[target] = false
	}
	for _, ev := range tr.Events {
		set := authorized[ev.Target]
		if set == nil {
			set = make(map[uint32]bool)
			authorized[ev.Target] = set
		}
		flip := ev.Type == trace.EvGrant || ev.Type == trace.EvRevoke
		if !flip && open[ev.Target] {
			check(ev.Target)
		}
		open[ev.Target] = open[ev.Target] || flip
		switch ev.Type {
		case trace.EvGrant:
			set[ev.SID] = true
		case trace.EvRevoke, trace.EvEnd, trace.EvUnregister:
			delete(set, ev.SID)
		}
	}
	for target, o := range open {
		if o {
			check(target)
		}
	}
	if decisions == 0 {
		t.Fatal("no decisions recorded")
	}
}

// aggregate formats the deterministic slice of a finished run's stats:
// per-application phase/grant/progress counters and the grand totals. Wall
// times, latencies and decision interleavings legitimately vary run to run
// and are excluded.
func aggregate(srv *Server, clients int) string {
	st := srv.Stats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "sessions=%d grants_served=%d\n", st.Sessions, st.GrantsServed)
	for _, a := range st.Apps {
		fmt.Fprintf(&sb, "%s cores=%d state=%s phases=%d grants=%d bytes_done=%.0f\n",
			a.Name, a.Cores, a.State, a.Phases, a.Grants, a.BytesDone)
	}
	return sb.String()
}

// TestAggregate64ClientsByteStable is the acceptance bar for the daemon: 64
// concurrent client connections complete a fixed workload and the aggregate
// stats are byte-identical across two independent runs, regardless of how
// the connection goroutines interleaved.
func TestAggregate64ClientsByteStable(t *testing.T) {
	const clients, phases, steps = 64, 2, 2
	run := func() string {
		srv, addr := startTestServer(t, Config{Policy: core.FCFSPolicy{}})
		hold := make(chan struct{})
		var worked, closed sync.WaitGroup
		errs := make(chan error, clients)
		for i := 0; i < clients; i++ {
			worked.Add(1)
			closed.Add(1)
			go func(i int) {
				defer closed.Done()
				err := stressClient(t, addr, fmt.Sprintf("app-%03d", i), phases, steps,
					func() {}, func() {}, worked.Done, hold)
				if err != nil {
					errs <- err
				}
			}(i)
		}
		// Every client has finished its protocol exchange but is still
		// connected: the snapshot below sees the complete, settled state
		// of all 64 sessions.
		worked.Wait()
		agg := aggregate(srv, clients)
		close(hold)
		closed.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		return agg
	}
	one, two := run(), run()
	if one != two {
		t.Fatalf("aggregate stats not byte-stable:\n--- run 1\n%s--- run 2\n%s", one, two)
	}
	if !strings.Contains(one, fmt.Sprintf("grants_served=%d", clients*phases*steps)) {
		t.Fatalf("unexpected totals:\n%s", one)
	}
	if got := strings.Count(one, "\n"); got != clients+1 {
		t.Fatalf("want %d app lines, got %d:\n%s", clients, got-1, one)
	}
}
