package mitigate

import (
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/stats"
)

func TestGrapheneTriggersAtThreshold(t *testing.T) {
	g := NewGraphene(100, 8)
	var refreshed []int
	for i := 0; i < 100; i++ {
		refreshed = g.OnActivate(42)
	}
	if len(refreshed) == 0 {
		t.Fatal("Graphene did not trigger at threshold")
	}
	want := map[int]bool{40: true, 41: true, 43: true, 44: true}
	for _, v := range refreshed {
		if !want[v] {
			t.Errorf("unexpected preventive-refresh target %d", v)
		}
	}
	if g.PreventiveRefreshes() != 1 {
		t.Fatalf("refresh count = %d", g.PreventiveRefreshes())
	}
}

// TestGrapheneMisraGriesBound: the estimate never undercounts by more than
// (total activations)/(tableSize+1) — the guarantee Graphene's security
// argument rests on.
func TestGrapheneMisraGriesBound(t *testing.T) {
	f := func(seed uint64) bool {
		const tableSize = 4
		g := NewGraphene(1<<30, tableSize) // huge threshold: count only
		rng := stats.NewRNG(seed)
		truth := make(map[int]int)
		total := 0
		for i := 0; i < 2000; i++ {
			row := rng.Intn(12)
			truth[row]++
			total++
			g.OnActivate(row)
		}
		bound := total / (tableSize + 1)
		for row, actual := range truth {
			est := g.EstimatedCount(row)
			// Two-sided bound: the spillover both caps undercounting (a row
			// can lose at most `spillover` increments) and caps
			// overcounting (re-inserted rows start at spillover+1), and the
			// spillover itself is bounded by total/(k+1).
			if actual-est > bound || est-actual > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGrapheneWindowReset(t *testing.T) {
	g := NewGraphene(10, 4)
	for i := 0; i < 9; i++ {
		g.OnActivate(7)
	}
	g.OnRefreshWindow()
	if out := g.OnActivate(7); len(out) != 0 {
		t.Fatal("counter survived window reset")
	}
}

func TestGraphenePanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewGraphene(0, 4)
}

func TestPARARate(t *testing.T) {
	pa := NewPARA(0.05, 7)
	const n = 200000
	hits := 0
	for i := 0; i < n; i++ {
		if len(pa.OnActivate(100)) > 0 {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.045 || rate > 0.055 {
		t.Fatalf("PARA refresh rate = %v, want ≈0.05", rate)
	}
	if pa.PreventiveRefreshes() != uint64(hits) {
		t.Fatal("refresh counter mismatch")
	}
}

func TestPARARefreshesNeighbors(t *testing.T) {
	pa := NewPARA(1.0, 3)
	for i := 0; i < 100; i++ {
		out := pa.OnActivate(50)
		if len(out) != 1 || (out[0] != 49 && out[0] != 51) {
			t.Fatalf("PARA target = %v", out)
		}
	}
}

func TestTRRTracksRecentDistinctRows(t *testing.T) {
	trr := NewTRR(4)
	for _, r := range []int{1, 2, 3, 4, 5, 6} {
		trr.OnActivate(r)
	}
	got := trr.Tracked()
	want := []int{3, 4, 5, 6}
	if len(got) != 4 {
		t.Fatalf("tracked = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tracked = %v, want %v", got, want)
		}
	}
}

// TestTRRDummyRowBypass is the §6.2 attack mechanism: activating enough
// dummy rows after the real aggressors evicts them from the sampler, so
// the REF-time preventive refreshes miss the real victims.
func TestTRRDummyRowBypass(t *testing.T) {
	trr := NewTRR(4)
	trr.OnActivate(1000) // real aggressor
	trr.OnActivate(1002) // real aggressor
	for d := 0; d < 16; d++ {
		trr.OnActivate(2000 + d*10) // dummies ≥100 rows away
	}
	for _, v := range trr.OnRefresh() {
		if v >= 998 && v <= 1004 {
			t.Fatalf("TRR refreshed real victim %d despite dummy flood", v)
		}
	}
}

func TestTRRCatchesUndisguisedAggressor(t *testing.T) {
	trr := NewTRR(4)
	trr.OnActivate(1000)
	trr.OnActivate(1002)
	victims := trr.OnRefresh()
	found := false
	for _, v := range victims {
		if v == 1001 {
			found = true
		}
	}
	if !found {
		t.Fatal("TRR missed the victim of an undisguised aggressor pair")
	}
	if len(trr.Tracked()) != 0 {
		t.Fatal("REF should clear the tracker")
	}
}

func TestAdaptMatchesTable3(t *testing.T) {
	// Table 3: T_RH = 1000; tmro 36→1000, 66→809, 96→724, 186→619,
	// 336→555, 636→419.
	want := map[dram.TimePS]int{
		36 * dram.Nanosecond:  1000,
		66 * dram.Nanosecond:  809,
		96 * dram.Nanosecond:  724,
		186 * dram.Nanosecond: 619,
		336 * dram.Nanosecond: 555,
		636 * dram.Nanosecond: 419,
	}
	for tmro, wantT := range want {
		cfg, err := Adapt(1000, SamsungBDieCurve, tmro)
		if err != nil {
			t.Fatalf("tmro %s: %v", dram.FormatTime(tmro), err)
		}
		if cfg.TPrimeRH != wantT {
			t.Errorf("tmro %s: T' = %d, want %d", dram.FormatTime(tmro), cfg.TPrimeRH, wantT)
		}
	}
}

func TestAdaptRejectsOutOfRange(t *testing.T) {
	if _, err := Adapt(1000, SamsungBDieCurve, 10*dram.Nanosecond); err == nil {
		t.Error("below-range tmro should fail")
	}
	if _, err := Adapt(1000, SamsungBDieCurve, dram.Millisecond); err == nil {
		t.Error("beyond-range tmro should fail")
	}
	if _, err := Adapt(0, SamsungBDieCurve, 96*dram.Nanosecond); err == nil {
		t.Error("zero T_RH should fail")
	}
	if _, err := Adapt(1000, nil, 96*dram.Nanosecond); err == nil {
		t.Error("empty curve should fail")
	}
}

func TestGrapheneRPAndPARARPDerivation(t *testing.T) {
	cfg, err := Adapt(1000, SamsungBDieCurve, 636*dram.Nanosecond)
	if err != nil {
		t.Fatal(err)
	}
	g := GrapheneRP(cfg, 64)
	if g.Threshold != 139 { // Table 3: T = 139 at tmro 636 ns
		t.Errorf("Graphene-RP T = %d, want 139", g.Threshold)
	}
	pa := PARARP(cfg, 1)
	if pa.P < 0.075 || pa.P > 0.085 { // Table 3: p = 0.079
		t.Errorf("PARA-RP p = %v, want ≈0.079", pa.P)
	}
}

// Tracked returns a copy of the currently tracked rows.
func (t *TRR) Tracked() []int {
	return append([]int(nil), t.recent...)
}
