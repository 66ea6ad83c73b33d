package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

// recording is calciomd's trace of ten clients whose phases alternate
// between four storage targets: each session registers on two of them.
const recording = "../../internal/replay/testdata/daemon_4targets.trace"

// TestSessionsCountsDistinctSessions: the daemon records a register per
// target a session attaches to, so the recording holds twenty registers of
// ten sessions, and the report says ten — in text and in JSON.
func TestSessionsCountsDistinctSessions(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-trace", recording}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	if !strings.Contains(first, " events=460 sessions=10 ") {
		t.Errorf("header line %q, want events=460 sessions=10", first)
	}
	if !strings.Contains(out.String(), "verify: policy=delay grants=80 arbitrations=200 flips=60 match=true\n") {
		t.Errorf("no matching verify line in:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"-json", recording}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	if !strings.Contains(out.String(), `"sessions": 10,`) {
		t.Errorf("JSON report without \"sessions\": 10:\n%s", out.String())
	}
}

// TestUsageErrors: a command line naming nothing to do fails as a usage
// error (exit status 2) before anything is printed, and a trace calciomd
// did not record fails to replay (exit status 1).
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-trace", recording, "-policies", "nonesuch"},
	} {
		var out, errs bytes.Buffer
		if code := run(args, &out, &errs); code != 2 {
			t.Errorf("run(%q) = %d, want 2 (a usage error)", args, code)
		}
		if len(args) == 0 && out.Len() > 0 {
			t.Errorf("run(%q) printed %q", args, out.String())
		}
	}

	path := filepath.Join(t.TempDir(), "client.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.NewWriter(f, trace.Header{Source: "client", Policy: "fcfs"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.Record(trace.Event{Type: trace.EvRegister, SID: 1, App: "a", Cores: 1})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var out, errs bytes.Buffer
	if code := run([]string{"-trace", path}, &out, &errs); code != 1 || !strings.Contains(errs.String(), "calciomd -record") {
		t.Errorf("a client-source trace: exit %d, stderr %q; want 1 and a message naming calciomd -record", code, errs.String())
	}
}
