// Package approx is test support: one floating-point comparison for the
// tests of this module, in place of a pasted helper per package.
package approx

import "math"

// Equal reports whether a and b agree to the relative tolerance rel:
// |a-b| <= rel × max(|a|, |b|). It is symmetric in a and b and needs no
// special case at zero, where only zero is close to zero — a caller comparing
// against an expected 0 wants an absolute bound and should write one. Equal
// values are equal whatever they are, so two infinities of one sign match;
// an infinity matches nothing else and a NaN matches nothing.
func Equal(a, b, rel float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= rel*math.Max(math.Abs(a), math.Abs(b)) && !math.IsInf(d, 1)
}
