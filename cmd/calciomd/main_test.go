package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/replay"
	"repro/internal/trace"
)

// TestUsageErrors: a command line or configuration the daemon cannot serve
// exits 2 before it listens, and prints no report.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nonesuch"},
		{"-policy", "nonesuch"},
		{"-policy", "dynamic"}, // no -fs-mibps for its model
		{"-policy", "delay(-1)"},
		{"-policy", "dynamic(nonesuch)"},
		{"-policy", "fcfs(1)"},
		{"-fs-mibps", "-1"},
		{"-log-level", "loud"},
		{"-log-sample", "-1"},
		{"-max-sessions", "-1"},
		{"-session-timeout", "5", "-grant-grace", "5"},
		{"-handshake-timeout", "5", "-session-timeout", "5"},
		{"-accept-loops", "4"},     // listener sharding is gone
		{"-sock-buffer", "4096"},   // so is socket-buffer tuning
		{"-config", "daemon.json"}, // and the configuration file
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append([]string{"-listen", "127.0.0.1:0"}, args...), &stdout, &stderr, nil); code != 2 {
			t.Errorf("calciomd %q: exit %d, want 2", args, code)
		}
		if stdout.Len() > 0 || stderr.Len() == 0 {
			t.Errorf("calciomd %q printed %q to stdout and %q to stderr", args, stdout.String(), stderr.String())
		}
	}
}

// TestBusyAddressKeepsTrace: a daemon that cannot listen exits 1 and leaves
// the file at -record as it was.
func TestBusyAddressKeepsTrace(t *testing.T) {
	busy, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := os.WriteFile(path, []byte("an earlier recording"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-listen", busy.Addr().String(), "-record", path}, &stdout, &stderr, nil); code != 1 || stdout.Len() > 0 {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1 and no report", code, stdout.String(), stderr.String())
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "an earlier recording" {
		t.Fatalf("the recording at -record now reads %q, %v", data, err)
	}
}

// logTail is the daemon's stderr: written from many goroutines, it hands
// the serving address over once the daemon logs it.
type logTail struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	serving chan string
}

var servingOn = regexp.MustCompile(`calciomd: serving on (\S+) `)

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if m := servingOn.FindSubmatch(p); m != nil {
		l.serving <- string(m[1])
	}
	return len(p), nil
}

// grantOnce runs the daemon with args on a loopback port, serves one grant
// cycle to app A, then closes the signal channel — both signals at once:
// drain, then shut down. It returns the exit status and the report.
func grantOnce(t *testing.T, args ...string) (int, string) {
	t.Helper()
	logs := &logTail{serving: make(chan string, 1)}
	sig := make(chan os.Signal)
	var stdout bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run(append([]string{"-listen", "127.0.0.1:0"}, args...), &stdout, logs, sig) }()
	var addr string
	select {
	case addr = <-logs.serving:
	case code := <-done:
		t.Fatalf("exit %d before serving", code)
	case <-time.After(10 * time.Second):
		t.Fatal("not serving after 10s")
	}
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	tg := c.Target("")
	for _, step := range []func() error{func() error { return c.Register("A", 1) }, tg.Inform, tg.Wait, func() error { return tg.Release(0) }, tg.End} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	close(sig)
	return <-done, stdout.String()
}

// TestServeUntilSignal: the daemon serves a grant, and a signal shuts it
// down cleanly with the grant counted and the trace flushed losslessly.
func TestServeUntilSignal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	code, out := grantOnce(t, "-record", path)
	if code != 0 {
		t.Fatalf("exit %d after the signal", code)
	}
	if !strings.Contains(out, "calciomd: clean shutdown: policy=fcfs grants-served=1 ") ||
		!strings.Contains(out, " dropped=0 path="+path+"\n") {
		t.Fatalf("shutdown report:\n%s", out)
	}
}

// TestRecordModelPolicy: a model policy set by flags records a header that
// names its complete spec and the model, and the recording verifies.
func TestRecordModelPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	code, out := grantOnce(t, "-policy", "delay(0.25)", "-fs-mibps", "4096", "-proc-nic-mibps", "3", "-record", path)
	if code != 0 || !strings.Contains(out, "policy=delay(0.25) grants-served=1 ") {
		t.Fatalf("exit %d, report:\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Exactly this header: magic, version, length, then the JSON.
	hdr := `{"source":"calciomd","policy":"delay(0.25)","fs_mibps":4096,"proc_nic_mibps":3}`
	if want := "\x03\x00" + string([]byte{byte(len(hdr)), 0}) + hdr; !bytes.HasPrefix(data[8:], []byte(want)) {
		t.Fatalf("trace starts %q, want the header %s", data[:min(len(data), 120)], hdr)
	}
	tr, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	v, err := replay.Verify(tr)
	if err != nil || !v.Match || v.Policy != "delay(0.25)" || v.GrantsServed != 1 {
		t.Fatalf("verify: %+v, %v", v, err)
	}
}
