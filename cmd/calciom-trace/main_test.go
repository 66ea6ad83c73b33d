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
	var out bytes.Buffer
	if err := run([]string{"-coord", "../../internal/replay/testdata/daemon_4targets.trace"}, &out); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(out.String(), "\n")
	if !strings.Contains(first, " events=460 sessions=10 targets=4 ") {
		t.Errorf("summary line %q, want events=460 sessions=10 targets=4", first)
	}
	if !strings.Contains(out.String(), "coord-trace: type=register count=20\n") {
		t.Errorf("summary without the twenty registers:\n%s", out.String())
	}
}
