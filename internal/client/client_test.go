package client_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/server"
)

// The happy paths are exercised end-to-end by internal/server's integration
// and stress tests; here we pin the client-side failure modes.

func TestConnectionLossFailsPendingCalls(t *testing.T) {
	srv, err := server.New(server.Config{Policy: core.FCFSPolicy{}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	a, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := client.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := a.Register("A", 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Register("B", 1); err != nil {
		t.Fatal(err)
	}
	// A holds access; B parks in Wait, then the daemon goes away: B's
	// blocked Wait and every later call must fail, not hang.
	in := core.Info{}
	in.SetFloat(core.KeyBytesTotal, 10)
	if err := client.NewSession(a).Begin(in); err != nil {
		t.Fatal(err)
	}
	if err := b.Prepare(in); err != nil {
		t.Fatal(err)
	}
	if err := b.Inform(); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- b.Wait() }()
	time.Sleep(20 * time.Millisecond)
	srv.Close()
	select {
	case err := <-waitErr:
		if err == nil || !strings.Contains(err.Error(), "connection lost") {
			t.Fatalf("blocked Wait after shutdown: %v, want connection lost", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked Wait hung after server shutdown")
	}
	if err := b.Inform(); err == nil {
		t.Fatal("call on dead connection succeeded")
	}
	if b.Authorized() {
		t.Fatal("dead client still reports authorization")
	}
}
