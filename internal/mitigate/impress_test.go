package mitigate

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/stats"
)

// TestImPressWeightsOpenTime pins the implicit-press core: a dwell of k
// quanta consumes k+1 activations' worth of the tracking threshold, so
// long-open activations trigger a preventive refresh far sooner than a
// plain activation counter would.
func TestImPressWeightsOpenTime(t *testing.T) {
	const quantum = 250 * dram.Nanosecond
	im := NewImPress(100, 8, quantum)
	// 9 dwells of 11 quanta each: weighted 9 × 12 = 108 ≥ 100.
	var refreshed []int
	for i := 0; i < 9; i++ {
		if len(refreshed) > 0 {
			t.Fatalf("triggered after %d dwells", i)
		}
		refreshed = im.OnActivateTimed(42, 11*quantum)
	}
	if len(refreshed) == 0 {
		t.Fatal("ImPress did not trigger on weighted dwells")
	}
	want := map[int]bool{40: true, 41: true, 43: true, 44: true}
	for _, v := range refreshed {
		if !want[v] {
			t.Errorf("unexpected preventive-refresh target %d", v)
		}
	}
	if im.PreventiveRefreshes() != 1 {
		t.Fatalf("refresh count = %d", im.PreventiveRefreshes())
	}

	// A plain Graphene at the same threshold sees the same 9 activations
	// as weight 9 and stays silent — the gap ImPress exists to close.
	g := NewGraphene(100, 8)
	for i := 0; i < 9; i++ {
		if out := g.OnActivate(42); len(out) != 0 {
			t.Fatal("Graphene should not trigger on 9 unweighted activations")
		}
	}
}

// TestImPressMinimumWeight: tRAS-length (and untimed) activations cost
// exactly 1, so on a pure RowHammer stream ImPress behaves like the
// unweighted tracker.
func TestImPressMinimumWeight(t *testing.T) {
	im := NewImPress(50, 8, DefaultImPressQuantum)
	g := NewGraphene(50, 8)
	for i := 0; i < 49; i++ {
		if out := im.OnActivateTimed(7, 36*dram.Nanosecond); len(out) != 0 {
			t.Fatalf("ImPress triggered at %d short activations", i+1)
		}
		g.OnActivate(7)
	}
	ri, rg := im.OnActivateTimed(7, 36*dram.Nanosecond), g.OnActivate(7)
	if len(ri) == 0 || len(rg) == 0 {
		t.Fatal("both trackers should trigger at the 50th short activation")
	}
	if im.EstimatedCount(7) != g.EstimatedCount(7) {
		t.Fatalf("post-trigger estimates differ: impress=%d graphene=%d",
			im.EstimatedCount(7), g.EstimatedCount(7))
	}
}

// TestImPressWindowReset: OnRefreshWindow clears all tracking state.
func TestImPressWindowReset(t *testing.T) {
	im := NewImPress(100, 4, DefaultImPressQuantum)
	im.OnActivateTimed(3, 20*dram.Microsecond)
	if im.EstimatedCount(3) == 0 {
		t.Fatal("expected nonzero estimate before reset")
	}
	im.OnRefreshWindow()
	if im.EstimatedCount(3) != 0 {
		t.Fatal("estimate survived the refresh window")
	}
}

// TestImPressWeightedMisraGriesBound pins ImPress's weighted Misra-Gries
// table to the bound its update rule guarantees. With k table entries,
// weights w in [1, wmax], W the total weight and S the spillover:
//
//   - Every estimate is at least the row's true weighted count, and
//     exceeds it by at most S: an untracked row reads S; a tracked row
//     entered at the spillover of its insertion (≤ S) and has since
//     gained exactly its own weights. An evicted row's count was ≤ S.
//   - S ≤ wmax·W/(k+wmax). Let Φ be the sum over entries of (count − S):
//     every entry's count exceeds S, so each term is an integer ≥ 1. A
//     hit or an insertion of weight w raises Φ by w; a spill (table full,
//     row untracked) of weight w raises S by w and lowers each of the k
//     terms by min(w, term) ≥ 1. As Φ ≥ 0, k·spills ≤ W − S, and
//     S ≤ wmax·spills, so k·S ≤ wmax·(W − S).
//
// With unit weights this is Graphene's W/(k+1). With larger weights it is
// looser, and not by a constant: an entry evicted at the spillover loses
// only its excess, less than the weight that evicts it, so k unit-weight
// insertions and one weight-wmax spill can repeat forever with S growing
// by wmax per k+wmax of W.
func TestImPressWeightedMisraGriesBound(t *testing.T) {
	const (
		quantum   = 250 * dram.Nanosecond
		tableSize = 4
		wmax      = 8 // 1 + the largest quanta drawn below
	)
	// Fixed seeds; the first broke the unit-weight bound W/(k+1) by 3.
	seeds := []uint64{0x8eb39a6f2c71ec8a}
	for i := range uint64(63) {
		seeds = append(seeds, stats.Mix64(i))
	}
	for _, seed := range seeds {
		im := NewImPress(1<<30, tableSize, quantum) // huge threshold: count only
		rng := stats.NewRNG(seed)
		truth := make(map[int]int)
		total := 0
		for i := 0; i < 2000; i++ {
			row := rng.Intn(12)
			quanta := rng.Intn(wmax)
			w := 1 + quanta
			truth[row] += w
			total += w
			im.OnActivateTimed(row, dram.TimePS(quanta)*quantum)
		}
		if s := im.spillover; s*(tableSize+wmax) > wmax*total {
			t.Errorf("seed %#x: spillover %d above %d·%d/(%d+%d)", seed, s, wmax, total, tableSize, wmax)
		}
		for row, actual := range truth {
			if est := im.EstimatedCount(row); est < actual || est-actual > im.spillover {
				t.Errorf("seed %#x row %d: estimate %d, true count %d, spillover %d", seed, row, est, actual, im.spillover)
			}
		}
	}
}

// TestObserveRouting: Observe prefers the timed hook when present.
func TestObserveRouting(t *testing.T) {
	im := NewImPress(10, 4, 250*dram.Nanosecond)
	// One 3-quantum dwell (weight 4) + untimed path on a plain tracker.
	Observe(im, 5, 750*dram.Nanosecond)
	if got := im.EstimatedCount(5); got != 4 {
		t.Fatalf("timed observation weighted %d, want 4", got)
	}
	g := NewGraphene(10, 4)
	Observe(g, 5, 750*dram.Nanosecond) // no timed hook: weight 1
	if got := g.EstimatedCount(5); got != 1 {
		t.Fatalf("untimed observation counted %d, want 1", got)
	}
}
