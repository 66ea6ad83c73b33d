package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestCoordSessionsCountsDistinctSessions: calciomd records a register per
// storage target a session attaches to; this four-target recording holds
// twenty registers of ten sessions, and the summary counts sessions.
func TestCoordSessionsCountsDistinctSessions(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-coord", "../../internal/replay/testdata/daemon_4targets.trace"}, &out, &errs); code != 0 {
		t.Fatalf("exit %d: %s", code, errs.String())
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	if !strings.Contains(first, " events=460 sessions=10 targets=4 ") {
		t.Errorf("summary line %q, want events=460 sessions=10 targets=4", first)
	}
	if !strings.Contains(out.String(), "coord-trace: type=register count=20\n") {
		t.Errorf("summary without the twenty registers:\n%s", out.String())
	}
}

// TestUsageErrors: a malformed command line exits 2 and an unreadable
// trace 1, before anything is printed.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-nonesuch"}, 2},
		{[]string{"-coord", "nonesuch.trace"}, 1},
		{[]string{"-file", "nonesuch.swf"}, 1},
	} {
		var out, errs bytes.Buffer
		if code := run(tc.args, &out, &errs); code != tc.code {
			t.Errorf("calciom-trace %q: exit %d, want %d", tc.args, code, tc.code)
		}
		if out.Len() > 0 || errs.Len() == 0 {
			t.Errorf("calciom-trace %q printed %q to stdout and %q to stderr", tc.args, out.String(), errs.String())
		}
	}
}
