package client_test

import (
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wirebin"
)

// TestFailOpenWedgedSuccessor: a session's connection is cut while its Wait
// is parked, and the redial lands on a successor that acks the codec hello
// and then never answers a frame. The resume must not park the
// interrupted Wait forever: the resume window (a read deadline on the new
// connection) expires into an ordinary connection loss, recovery goes on,
// and FailOpen self-grants the Wait — on a plain binary connection and on a
// mux stream alike.
func TestFailOpenWedgedSuccessor(t *testing.T) {
	const (
		resumeWindow = 5 * time.Second // the client's resume read deadline
		failOpen     = 200 * time.Millisecond
		backoffMax   = 50 * time.Millisecond
		slack        = time.Second // scheduling headroom under -race
	)
	for _, mux := range []bool{false, true} {
		name := "binary"
		if mux {
			name = "mux"
		}
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			_, addr := startServer(t, server.Config{GrantGrace: 5 * time.Second, Metrics: reg})
			parked := reg.Gauge("calciomd_queue_depth", "", obs.Label{Key: "target", Value: ""})
			p, err := chaos.New(chaos.Options{Target: addr})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			tee := newTeeProxy(t, p.Addr())

			holder, err := client.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer holder.Close()
			if err := holder.Register("HOLDER", 1); err != nil {
				t.Fatal(err)
			}
			if err := client.NewSession(holder).Begin(info(100)); err != nil {
				t.Fatal(err)
			}

			opts := client.Options{Reconnect: true, FailOpen: failOpen,
				BackoffMin: 10 * time.Millisecond, BackoffMax: backoffMax, Codec: wirebin.Codec{}}
			var c *client.Client
			if mux {
				m, err := client.DialMux(tee.Addr(), opts)
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				if c, err = m.Client(); err != nil {
					t.Fatal(err)
				}
			} else if c, err = client.DialOptions(tee.Addr(), opts); err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Register("WAITER", 1); err != nil {
				t.Fatal(err)
			}
			if err := c.Prepare(info(100)); err != nil {
				t.Fatal(err)
			}
			if err := c.Inform(); err != nil {
				t.Fatal(err)
			}
			waited := make(chan error, 1)
			go func() { waited <- c.Wait() }()
			deadline := time.Now().Add(10 * time.Second)
			for parked.Value() != 1 {
				if time.Now().After(deadline) {
					t.Fatal("the wait never parked behind the holder")
				}
				time.Sleep(time.Millisecond)
			}

			tee.wedge.Store(true)
			cut := time.Now()
			p.Cut()
			bound := resumeWindow + failOpen + backoffMax + slack
			select {
			case err := <-waited:
				if err != nil {
					t.Fatalf("interrupted wait: %v", err)
				}
			case <-time.After(bound):
				t.Fatalf("interrupted wait still parked %v after the cut: the wedged resume never failed open", bound)
			}
			t.Logf("self-granted %v after the cut", time.Since(cut).Round(time.Millisecond))
			if r := c.DegradedReport(); r.SelfGrants != 1 {
				t.Fatalf("degraded report %+v, want the interrupted wait self-granted", r)
			}
		})
	}
}
