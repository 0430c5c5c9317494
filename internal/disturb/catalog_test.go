package disturb_test

import (
	"testing"

	"repro/internal/chipgen"
	"repro/internal/disturb"
)

// TestLazyMatchesEagerCatalog runs the lazy-versus-eager differential
// check on every calibrated die revision, including the mixed and
// anti-cell-dominant layouts, at three module seeds.
func TestLazyMatchesEagerCatalog(t *testing.T) {
	dies := chipgen.DieRevisions()
	mixed := false
	flips, gated := 0, 0
	for _, die := range dies {
		mixed = mixed || (die.Params.TrueCellFraction != 0 && die.Params.TrueCellFraction != 1)
		for _, seed := range []uint64{1, 7, 42} {
			f, g := disturb.CheckLazyMatchesEager(t, die.Params, seed)
			flips, gated = flips+f, gated+g
		}
	}
	if !mixed {
		t.Fatal("no die with a mixed true/anti-cell layout; the orientation hash path is untested")
	}
	if flips == 0 || gated == 0 {
		t.Fatalf("%d flips, %d gated populations across %d dies; the check is vacuous", flips, gated, len(dies))
	}
}

// TestFlipLogCoversChangedBytes holds ApplyFlipsLog's log to the bytes
// the evaluation changes, and unlogged ApplyFlips to the same bytes, on
// every calibrated die revision at three module seeds.
func TestFlipLogCoversChangedBytes(t *testing.T) {
	flips, flipBacks := 0, 0
	for _, die := range chipgen.DieRevisions() {
		for _, seed := range []uint64{1, 7, 42} {
			f, b := disturb.CheckFlipLogCoversChangedBytes(t, die.Params, seed)
			flips, flipBacks = flips+f, flipBacks+b
		}
	}
	if flips == 0 || flipBacks == 0 {
		t.Fatalf("%d flips, %d press flips undone by hammer; the check is vacuous", flips, flipBacks)
	}
}

// TestWeakestBoundBelowSampled holds the population bound below the
// sampled weakest threshold on every calibrated die revision at three
// module seeds, for all three mechanisms over 256 rows, and requires it
// to stay informative.
func TestWeakestBoundBelowSampled(t *testing.T) {
	checked := 0
	var gaps []float64
	for _, die := range chipgen.DieRevisions() {
		for _, seed := range []uint64{1, 7, 42} {
			n, g := disturb.CheckWeakestBound(t, die.Params, seed)
			checked, gaps = checked+n, append(gaps, g...)
		}
		disturb.CheckMillisecondRetentionUnsampled(t, die.Params, 1)
	}
	disturb.RequireTightBound(t, gaps)
	t.Logf("%d populations, %d nonempty", checked, len(gaps))
}
