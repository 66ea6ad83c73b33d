package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
)

// TestUsageErrors: a command line or configuration the daemon cannot serve
// exits 2 before it listens, and prints no report.
func TestUsageErrors(t *testing.T) {
	overlap := filepath.Join(t.TempDir(), "overlap.json")
	if err := os.WriteFile(overlap, []byte(`{"policy": "fcfs", "delay_overlap": 0.5}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-nonesuch"},
		{"-policy", "nonesuch"},
		{"-policy", "dynamic"}, // no fs_mibps for its model
		{"-policy", "delay(-1)"},
		{"-policy", "dynamic(nonesuch)"},
		{"-policy", "fcfs(1)"},
		{"-config", overlap}, // an overlap only bare delay takes
		{"-log-level", "loud"},
		{"-session-timeout", "5", "-grant-grace", "5"},
		{"-accept-loops", "4"},   // listener sharding is gone
		{"-sock-buffer", "4096"}, // so is socket-buffer tuning
		{"-config", filepath.Join(t.TempDir(), "missing.json")},
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

// TestServeUntilSignal: the daemon serves a grant, and a signal shuts it
// down cleanly with the grant counted and the trace flushed losslessly.
func TestServeUntilSignal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	logs := &logTail{serving: make(chan string, 1)}
	sig := make(chan os.Signal)
	var stdout bytes.Buffer
	done := make(chan int, 1)
	go func() { done <- run([]string{"-listen", "127.0.0.1:0", "-record", path}, &stdout, logs, sig) }()
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
	// A closed channel is both signals at once: drain, then shut down.
	close(sig)
	if code := <-done; code != 0 {
		t.Fatalf("exit %d after the signal", code)
	}
	out := stdout.String()
	if !strings.Contains(out, "calciomd: clean shutdown: policy=fcfs grants-served=1 ") ||
		!strings.Contains(out, " dropped=0 path="+path+"\n") {
		t.Fatalf("shutdown report:\n%s", out)
	}
}
