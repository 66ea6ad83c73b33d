package main

import (
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
