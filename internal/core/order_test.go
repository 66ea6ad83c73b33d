package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refCmpCoreShare is the comparator sharedFinishTimes sorted with through
// slices.SortFunc before its order got a typed loop: the reference.
func refCmpCoreShare(a, b coreShare) int {
	return cmp.Or(cmp.Compare(a.perCore, b.perCore), cmp.Compare(a.i, b.i))
}

// TestSortSharesMatchesSortFunc: the typed order equals slices.SortFunc with
// the reference comparator at every length from empty to well past
// sortCutoff, with bytes per core drawn from a few values so that ties (broken
// by index) are common, and +Inf (an unknown phase size, or no cores) among
// them.
func TestSortSharesMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	perCore := []float64{0.5, 1, 1, 2, 3, math.Inf(1)}
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 50; trial++ {
			got := make([]coreShare, n)
			for k, i := range rng.Perm(n) {
				got[k] = coreShare{perCore[rng.Intn(len(perCore))], i}
				if trial%2 == 1 {
					got[k].perCore = rng.Float64() // distinct, no ties
				}
			}
			want := slices.Clone(got)
			slices.SortFunc(want, refCmpCoreShare)
			sortShares(got)
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d: typed order %v, SortFunc %v", n, got, want)
			}
		}
	}
}

// TestSortByRegistrationMatchesSortFunc: a decision's flips, in any queue
// order, come out in registration order, short or long.
func TestSortByRegistrationMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 50; trial++ {
			apps := make([]*AppState, n)
			for k, idx := range rng.Perm(3 * n)[:n] {
				apps[k] = &AppState{idx: idx}
			}
			want := slices.Clone(apps)
			slices.SortFunc(want, func(a, b *AppState) int { return cmp.Compare(a.idx, b.idx) })
			sortByRegistration(apps)
			if !slices.Equal(apps, want) {
				t.Fatalf("n=%d: flips out of registration order", n)
			}
		}
	}
}
