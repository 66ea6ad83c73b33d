package main

import (
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
