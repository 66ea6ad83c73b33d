package approx

import (
	"math"
	"testing"
)

func TestEqual(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, tc := range []struct {
		a, b, rel float64
		want      bool
	}{
		{1, 1, 0, true},
		{0, 0, 0, true},
		{0, math.Copysign(0, -1), 0, true},
		{1, 1 + 1e-13, 1e-12, true},
		{1, 1 + 1e-11, 1e-12, false},
		{1e-9, 1.0000000000001e-9, 1e-12, true}, // small magnitudes: still relative
		{1e-9, 2e-9, 1e-6, false},               // an absolute epsilon would pass this
		{1e12, 1e12 + 0.5, 1e-12, true},         // large magnitudes: still relative
		{0, 1e-300, 1e-6, false},                // dividing by a would divide by zero
		{-2, -2 - 1e-13, 1e-12, true},           // negatives: the scale is a magnitude
		{-1, 1, 1, false},
		{inf, inf, 0, true},
		{-inf, -inf, 0, true},
		{inf, -inf, 1, false},
		{inf, 1e308, 1, false},
		{nan, nan, 1, false},
		{nan, 1, 1, false},
	} {
		if got := Equal(tc.a, tc.b, tc.rel); got != tc.want {
			t.Errorf("Equal(%v, %v, %v) = %v, want %v", tc.a, tc.b, tc.rel, got, tc.want)
		}
		if got := Equal(tc.b, tc.a, tc.rel); got != tc.want {
			t.Errorf("Equal(%v, %v, %v) = %v, want %v (asymmetric)", tc.b, tc.a, tc.rel, got, tc.want)
		}
	}
}
