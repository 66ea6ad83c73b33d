package main

import (
	"bytes"
	"math"
	"testing"
)

// TestCheckSweep: a sweep needs two points to step between its offsets, and
// finite offsets to schedule them.
func TestCheckSweep(t *testing.T) {
	for _, tc := range []struct {
		points       int
		dtMin, dtMax float64
		ok           bool
	}{
		{21, -15, 15, true},
		{2, 0, 0, true},
		{2, 15, -15, true},
		{1, -15, 15, false},
		{0, -15, 15, false},
		{-3, -15, 15, false},
		{21, math.NaN(), 15, false},
		{21, -15, math.NaN(), false},
		{21, math.Inf(-1), 15, false},
		{21, -15, math.Inf(1), false},
	} {
		if err := checkSweep(tc.points, tc.dtMin, tc.dtMax); (err == nil) != tc.ok {
			t.Errorf("checkSweep(%d, %v, %v) = %v, want ok=%v", tc.points, tc.dtMin, tc.dtMax, err, tc.ok)
		}
	}
}

// TestUsageErrors: every error is the command line's, exits 2 and comes
// before anything is printed.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nonesuch"},
		{"-platform", "nonesuch"},
		{"-pattern", "nonesuch"},
		{"-policies", "fcfs,nonesuch"},
		{"-points", "1"},
		{"-dt-min", "NaN"},
		{"-config", "nonesuch.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("calciom-delta %q: exit %d, want 2", args, code)
		}
		if stdout.Len() > 0 || stderr.Len() == 0 {
			t.Errorf("calciom-delta %q printed %q to stdout and %q to stderr", args, stdout.String(), stderr.String())
		}
	}
}
