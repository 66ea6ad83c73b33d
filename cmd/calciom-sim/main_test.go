package main

import (
	"bytes"
	"math"
	"testing"
)

// TestCheckOffset: B's start offset must be a time the engine can schedule.
func TestCheckOffset(t *testing.T) {
	for _, tc := range []struct {
		dt float64
		ok bool
	}{
		{5, true},
		{0, true},
		{-5, true},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		if err := checkOffset(tc.dt); (err == nil) != tc.ok {
			t.Errorf("checkOffset(%v) = %v, want ok=%v", tc.dt, err, tc.ok)
		}
	}
}

// TestUsageErrors: every error is the command line's, exits 2 and comes
// before anything is printed.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nonesuch"},
		{"-platform", "nonesuch"},
		{"-policy", "nonesuch"},
		{"-dt", "Inf"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("calciom-sim %q: exit %d, want 2", args, code)
		}
		if stdout.Len() > 0 || stderr.Len() == 0 {
			t.Errorf("calciom-sim %q printed %q to stdout and %q to stderr", args, stdout.String(), stderr.String())
		}
	}
}
