package main

import (
	"bytes"
	"errors"
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
// exits 2 before it listens, prints no report, and names the flag at fault
// — whether the flag parser, the trace header that builds the policy,
// calciomd or server.New refuses it.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		flag string
	}{
		{"unknown_flag", []string{"-nonesuch"}, "-nonesuch"},
		{"unknown_policy", []string{"-policy", "nonesuch"}, "-policy"},
		{"dynamic_needs_model", []string{"-policy", "dynamic"}, "-fs-mibps"},
		{"negative_delay", []string{"-policy", "delay(-1)"}, "-policy"},
		{"unknown_dynamic_candidate", []string{"-policy", "dynamic(nonesuch)"}, "-policy"},
		{"fcfs_takes_no_argument", []string{"-policy", "fcfs(1)"}, "-policy"},
		{"negative_bandwidth", []string{"-fs-mibps", "-1"}, "-fs-mibps"},
		{"negative_nic_bandwidth", []string{"-proc-nic-mibps", "-1"}, "-proc-nic-mibps"},
		{"unknown_log_level", []string{"-log-level", "loud"}, "-log-level"},
		{"negative_log_sample", []string{"-log-sample", "-1"}, "-log-sample"},
		{"negative_session_bound", []string{"-max-sessions", "-1"}, "-max-sessions"},
		{"negative_rate_limit", []string{"-max-requests-per-sec", "-5"}, "-max-requests-per-sec"},
		{"negative_timeout", []string{"-session-timeout", "-1"}, "-session-timeout"},
		{"negative_grace_below_a_nanosecond", []string{"-session-timeout", "1e-10", "-grant-grace", "-1e-10"}, "-grant-grace"},
		{"negative_handshake_timeout", []string{"-handshake-timeout", "-1"}, "-handshake-timeout"},
		{"grace_at_the_eviction_timeout", []string{"-session-timeout", "5", "-grant-grace", "5"}, "-grant-grace"},
		{"handshake_deadline_at_the_eviction_timeout", []string{"-handshake-timeout", "5", "-session-timeout", "5"}, "-handshake-timeout"},
		{"accept_loops_gone", []string{"-accept-loops", "4"}, "-accept-loops"},
		{"sock_buffer_gone", []string{"-sock-buffer", "4096"}, "-sock-buffer"},
		{"config_file_gone", []string{"-config", "daemon.json"}, "-config"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(append([]string{"-listen", "127.0.0.1:0"}, tc.args...), &stdout, &stderr, nil); code != 2 {
				t.Errorf("calciomd %q: exit %d, want 2", tc.args, code)
			}
			if stdout.Len() > 0 || !strings.Contains(stderr.String(), tc.flag) {
				t.Errorf("calciomd %q printed %q to stdout and %q to stderr; want stderr to name %s", tc.args, stdout.String(), stderr.String(), tc.flag)
			}
		})
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

// serve runs the daemon with args on a loopback port and returns its
// address, its stderr and stop, which closes its signal channel — both
// signals at once: drain, then shut down — and returns the exit status and
// the report.
func serve(t *testing.T, args ...string) (addr string, logs *logTail, stop func() (int, string)) {
	t.Helper()
	logs = &logTail{serving: make(chan string, 1)}
	sig := make(chan os.Signal)
	var stdout bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run(append([]string{"-listen", "127.0.0.1:0"}, args...), &stdout, logs, sig) }()
	select {
	case addr = <-logs.serving:
	case code := <-done:
		t.Fatalf("exit %d before serving", code)
	case <-time.After(10 * time.Second):
		t.Fatal("not serving after 10s")
	}
	return addr, logs, func() (int, string) {
		close(sig)
		return <-done, stdout.String()
	}
}

// grantOnce runs the daemon with args, serves one grant cycle to app A,
// then stops it, returning the exit status and the report.
func grantOnce(t *testing.T, args ...string) (int, string) {
	t.Helper()
	addr, _, stop := serve(t, args...)
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
	return stop()
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

// TestFlagsReachServer: a seconds flag reaches the server in seconds
// — -handshake-timeout 0.05 drops a connection that never registers after
// about 50 ms, well within a second — and every -log-level name serves.
func TestFlagsReachServer(t *testing.T) {
	addr, logs, stop := serve(t, "-handshake-timeout", "0.05", "-log-level", "debug")
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	conn.SetReadDeadline(start.Add(time.Second))
	_, err = conn.Read(make([]byte, 1))
	if waited := time.Since(start); err == nil || errors.Is(err, os.ErrDeadlineExceeded) || waited < 25*time.Millisecond {
		t.Fatalf("an unregistered connection read %v after %v; want it dropped after 0.05s", err, waited)
	}
	if code, _ := stop(); code != 0 {
		t.Fatalf("exit %d", code)
	}
	logs.mu.Lock()
	defer logs.mu.Unlock()
	if !strings.Contains(logs.buf.String(), "dropping unregistered connection: handshake timeout") {
		t.Fatalf("no handshake timeout logged:\n%s", logs.buf.String())
	}
	for _, level := range []string{"debug", "info", "warn", "error"} {
		t.Run("log_level_"+level, func(t *testing.T) {
			if code, _ := grantOnce(t, "-log-level", level); code != 0 {
				t.Fatalf("-log-level %s: exit %d", level, code)
			}
		})
	}
}
