package client_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/wirebin"
)

var update = flag.Bool("update", false, "rewrite testdata/transcript_*.golden from this tree's output")

// TestWireTranscript pins the bytes both sides put on the wire, in both
// directions, for one scripted two-session run per framing: v1 JSON and v2
// binary (a connection per session) and v3 mux (both sessions as streams of
// one connection). The script covers register, prepare, inform, an
// immediate wait, a wait parked behind the holder and served when the
// holder's phase ends, release, complete, end and stats; then the holder
// starts another phase,
// the second session closes, the connection is cut, and the holder resumes
// (incarnation 2) and re-drives its prepare, inform and wait before the
// interrupted release goes through. The daemon's clock is constant, so
// stats carry no wall time. A transport change that alters one byte —
// framing, negotiation, seq numbering, resume order — fails here.
func TestWireTranscript(t *testing.T) {
	for _, tc := range []struct {
		name  string
		codec wire.Codec
		mux   bool
	}{
		{"json", nil, false},
		{"binary", wirebin.Codec{}, false},
		{"mux", nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := transcript(t, tc.codec, tc.mux)
			golden := filepath.Join("testdata", "transcript_"+tc.name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("wire transcript differs from %s:\n--- got\n%s--- want\n%s", golden, got, want)
			}
		})
	}
}

// transcript runs the script through a recording proxy in front of a chaos
// proxy in front of the daemon and returns the rendered recording.
func transcript(t *testing.T, codec wire.Codec, mux bool) string {
	reg := obs.NewRegistry()
	_, addr := startServer(t, server.Config{Clock: func() float64 { return 0 },
		GrantGrace: 5 * time.Second, Metrics: reg})
	parked := reg.Gauge("calciomd_queue_depth", "", obs.Label{Key: "target", Value: ""})
	p, err := chaos.New(chaos.Options{Target: addr})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tee := newTeeProxy(t, p.Addr())

	opts := client.Options{Reconnect: true, Codec: codec,
		BackoffMin: 5 * time.Millisecond, BackoffMax: 20 * time.Millisecond}
	var a, b *client.Client
	if mux {
		m, err := client.DialMux(tee.Addr(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if a, err = m.Client(); err != nil {
			t.Fatal(err)
		}
		if b, err = m.Client(); err != nil {
			t.Fatal(err)
		}
	} else {
		if a, err = client.DialOptions(tee.Addr(), opts); err != nil {
			t.Fatal(err)
		}
		tee.waitAccepted(1)
		if b, err = client.DialOptions(tee.Addr(), opts); err != nil {
			t.Fatal(err)
		}
	}
	defer a.Close()
	defer b.Close()

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(a.Register("A", 1))
	must(b.Register("B", 2))
	must(a.Prepare(info(100)))
	must(b.Prepare(info(200)))
	must(a.Inform())
	must(b.Inform())
	must(a.Wait())
	bWait := make(chan error, 1)
	go func() { bWait <- b.Wait() }()
	deadline := time.Now().Add(10 * time.Second)
	for parked.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("B's wait never parked")
		}
		time.Sleep(time.Millisecond)
	}
	must(a.Release(100))
	must(a.Complete())
	must(a.End())
	select {
	case err := <-bWait:
		must(err)
	case <-time.After(10 * time.Second):
		t.Fatal("B's parked wait was never granted")
	}
	must(b.Release(200))
	must(b.End())
	if _, err := a.Stats(); err != nil {
		t.Fatal(err)
	}

	// A holds a fresh grant, B leaves, and the connection is cut: A resumes
	// on the next connection and re-drives its phase before the release.
	must(a.Prepare(info(50)))
	must(a.Inform())
	must(a.Wait())
	must(b.Close())
	accepted := tee.accepted()
	p.Cut()
	tee.waitAccepted(accepted + 1)
	must(a.Release(50))
	must(a.End())
	must(a.Close())
	tee.Close()
	return tee.render()
}
