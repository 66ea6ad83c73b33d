package client_test

import (
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/wirebin"
)

// TestMuxSessions drives several logical sessions over one physical
// connection end to end: independent registration, coordination on shared
// and distinct targets, stats, and stream teardown that leaves the other
// streams (and the shared connection) alive.
func TestMuxSessions(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	m, err := client.DialMux(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const n = 8
	clients := make([]*client.Client, n)
	for i := range clients {
		c, err := m.Client()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Register(fmt.Sprintf("mux-%d", i), 1); err != nil {
			t.Fatalf("register stream %d: %v", i, err)
		}
		clients[i] = c
	}

	// Every stream runs grant cycles concurrently, half on a shared target
	// (arbitrated against each other) and half on private ones.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client.Client) {
			defer wg.Done()
			target := "shared"
			if i%2 == 1 {
				target = fmt.Sprintf("solo-%d", i)
			}
			sess := client.NewSessionOn(c, target)
			for k := 0; k < 5; k++ {
				if err := sess.Begin(info(10)); err != nil {
					errs[i] = err
					return
				}
				if err := sess.End(10); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("stream %d cycles: %v", i, err)
		}
	}

	st, err := clients[0].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions != n {
		t.Fatalf("daemon sees %d sessions over the mux, want %d", st.Sessions, n)
	}

	// Closing one stream must not disturb its siblings.
	if err := clients[0].Close(); err != nil {
		t.Fatal(err)
	}
	sess := client.NewSessionOn(clients[1], "after-close")
	if err := sess.Begin(info(1)); err != nil {
		t.Fatalf("sibling stream after close: %v", err)
	}
	if err := sess.End(1); err != nil {
		t.Fatal(err)
	}
}

// TestMuxResumeAfterCut cuts the shared physical connection under several
// registered streams: one redial must resume every stream (same names,
// bumped incarnations) and the interrupted calls must retry through, with
// no self-grants because coordination never lapsed.
func TestMuxResumeAfterCut(t *testing.T) {
	_, addr := startServer(t, server.Config{GrantGrace: 5 * time.Second})
	p, err := chaos.New(chaos.Options{Target: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	m, err := client.DialMux(p.Addr(), client.Options{Reconnect: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	const n = 4
	sessions := make([]*client.Session, n)
	clients := make([]*client.Client, n)
	for i := range sessions {
		c, err := m.Client()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Register(fmt.Sprintf("cut-%d", i), 1); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		sessions[i] = client.NewSessionOn(c, fmt.Sprintf("t%d", i))
		if err := sessions[i].Begin(info(100)); err != nil {
			t.Fatal(err)
		}
	}

	p.Cut()
	done := make(chan error, n)
	for _, sess := range sessions {
		go func(sess *client.Session) {
			if err := sess.Yield(50); err != nil {
				done <- err
				return
			}
			done <- sess.End(100)
		}(sess)
	}
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("mux session after cut: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("mux session hung after disconnect-resume")
		}
	}
	for i, c := range clients {
		if r := c.DegradedReport(); r.SelfGrants != 0 {
			t.Fatalf("coordinated mux resume self-granted %d times on stream %d", r.SelfGrants, i)
		}
	}
}

// TestRawCallAllocs pins the pooled request path: one blocking round trip
// reuses its parked-call state (channel and pool entry) instead of
// allocating it, which removed two of the client's ~4.75 allocations per
// request. The bound covers the whole process — client call path, client
// read loop, and the in-process daemon's (zero-alloc) hot path — and holds
// for both codecs, since v1 JSON encodes and decodes without allocating
// too.
func TestRawCallAllocs(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	for _, codec := range []wire.Codec{wire.JSON, wirebin.Codec{}} {
		t.Run(codec.Name(), func(t *testing.T) {
			c, err := client.DialOptions(addr, client.Options{Codec: codec})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Register("alloc-"+codec.Name(), 1); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 200; i++ {
				if err := c.Inform(); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(2000, func() {
				if err := c.Inform(); err != nil {
					t.Fatal(err)
				}
			})
			// Measured 4.0 with the pool (channel + pending map entry
			// reused); before pooling the same loop measured ~6, and 0 since
			// the readers and encoders reuse their message structs. Headroom
			// for runtime noise, strict enough to catch the pool regressing.
			if got > 5 {
				t.Fatalf("Inform round trip allocates %.1f objects, want <= 5 (pooled pending calls)", got)
			}
		})
	}
}

// TestMuxOneGoroutine: a request leaves on the goroutine that made it, so a
// Mux carrying 8 registered streams that have run grant cycles runs exactly
// one goroutine of its own, its reader — none to hand frames to.
// Goroutines are told apart by stack; ones that ran client code before the
// Mux existed do not count.
func TestMuxOneGoroutine(t *testing.T) {
	clientGoroutines := func() map[string]bool {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		ids := map[string]bool{}
		for _, m := range goroutineRE.FindAllSubmatch(buf, -1) {
			if bytes.Contains(m[2], []byte("repro/internal/client.(*")) {
				ids[string(m[1])] = true
			}
		}
		return ids
	}
	before := clientGoroutines()
	_, addr := startServer(t, server.Config{})
	m, err := client.DialMux(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 8; i++ {
		c, err := m.Client()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Register(fmt.Sprintf("g-%d", i), 1); err != nil {
			t.Fatal(err)
		}
		sess := client.NewSessionOn(c, fmt.Sprintf("t%d", i))
		if err := sess.Begin(info(10)); err != nil {
			t.Fatal(err)
		}
		if err := sess.End(10); err != nil {
			t.Fatal(err)
		}
	}
	var mine []string
	for id := range clientGoroutines() {
		if !before[id] {
			mine = append(mine, id)
		}
	}
	if len(mine) != 1 {
		t.Fatalf("a Mux with 8 streams runs %d client goroutines (ids %v), want 1: its reader", len(mine), mine)
	}
}

// goroutineRE splits a runtime.Stack dump into goroutine ids and stacks.
var goroutineRE = regexp.MustCompile(`(?s)goroutine (\d+) \[[^\]]*\]:\n(.*?)(?:\n\n|$)`)
