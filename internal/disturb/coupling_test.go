package disturb

import (
	"testing"

	"repro/internal/dram"
)

// TestCouplingSignFlipsWithTemperature captures the Fig. 19 surprise: a
// charged same-column aggressor bit helps RowPress at 50 °C (CSI beats CB)
// but hurts at 80 °C (CSI much worse) — the model interpolates per-die
// coupling between its two calibration points.
func TestCouplingSignFlipsWithTemperature(t *testing.T) {
	p := DefaultParams()
	if !(p.PressCplCharged50 > p.PressCplDischgd50) {
		t.Fatal("at 50C the charged-aggressor coupling should dominate")
	}
	if !(p.PressCplCharged80 < p.PressCplDischgd80) {
		t.Fatal("at 80C the charged-aggressor coupling should be weaker")
	}
	geo := dram.Geometry{Banks: 1, RowsPerBank: 64, RowBytes: 8192}
	m := NewModel(p, geo, 42)

	flipsWith := func(tempC float64, nbByte byte) int {
		m.SetEvalTemperature(tempC)
		nb := filled(8192, nbByte)
		total := 0
		for row := 0; row < 40; row++ {
			data := filled(8192, 0xFF)
			total += m.ApplyFlips(0, row, data,
				dram.NeighborData{Above: nb, Below: nb}, dram.Exposure{PressAbove: 0.05})
		}
		return total
	}

	// At 50 °C charged neighbors amplify; at 80 °C they attenuate.
	if c, d := flipsWith(50, 0xFF), flipsWith(50, 0x00); c < d {
		t.Errorf("50C: charged neighbors flipped %d < discharged %d", c, d)
	}
	if c, d := flipsWith(80, 0xFF), flipsWith(80, 0x00); c > d {
		t.Errorf("80C: charged neighbors flipped %d > discharged %d", c, d)
	}
	m.SetEvalTemperature(50)
}

func TestProfileCacheStable(t *testing.T) {
	m := testModel()
	a := m.profile(0, 7)
	b := m.profile(0, 7)
	if a != b {
		t.Fatal("profile not cached")
	}
	m2 := testModel()
	aPress, cPress := sortedCells(m, 0, 7, streamPress), sortedCells(m2, 0, 7, streamPress)
	if len(aPress) != len(cPress) || len(sortedCells(m, 0, 7, streamHammer)) != len(sortedCells(m2, 0, 7, streamHammer)) {
		t.Fatal("profiles differ across identical models")
	}
	for i := range aPress {
		if aPress[i] != cPress[i] {
			t.Fatal("press cells differ across identical models")
		}
	}
}

func TestDifferentSeedsDifferentCells(t *testing.T) {
	geo := dram.Geometry{Banks: 1, RowsPerBank: 64, RowBytes: 8192}
	a := NewModel(DefaultParams(), geo, 1)
	b := NewModel(DefaultParams(), geo, 2)
	same := 0
	total := 0
	for row := 0; row < 20; row++ {
		pa, pb := sortedCells(a, 0, row, streamPress), sortedCells(b, 0, row, streamPress)
		total += len(pa)
		set := map[[2]int]bool{}
		for _, c := range pb {
			set[[2]int{int(c.col), int(c.bit)}] = true
		}
		for _, c := range pa {
			if set[[2]int{int(c.col), int(c.bit)}] {
				same++
			}
		}
	}
	if total == 0 {
		t.Fatal("no cells")
	}
	if float64(same)/float64(total) > 0.05 {
		t.Fatalf("different modules share %d/%d press cells", same, total)
	}
}

func TestAntiCellOrientationFraction(t *testing.T) {
	p := DefaultParams()
	p.TrueCellFraction = 0.25
	geo := dram.Geometry{Banks: 1, RowsPerBank: 64, RowBytes: 8192}
	m := NewModel(p, geo, 9)
	trueCells, total := 0, 0
	for row := 0; row < 50; row++ {
		for _, c := range sortedCells(m, 0, row, streamPress) {
			total++
			if c.trueCell {
				trueCells++
			}
		}
	}
	if total < 50 {
		t.Skip("too few cells sampled")
	}
	frac := float64(trueCells) / float64(total)
	if frac < 0.15 || frac > 0.35 {
		t.Fatalf("true-cell fraction = %.2f, want ≈0.25", frac)
	}
}

func TestSetTrialZeroDisablesJitter(t *testing.T) {
	m := testModel()
	m.SetTrial(0)
	a := filled(8192, 0xFF)
	b := filled(8192, 0xFF)
	n1 := m.ApplyFlips(0, 3, a, dram.NeighborData{}, dram.Exposure{PressAbove: 0.05})
	m.SetTrial(0)
	n2 := m.ApplyFlips(0, 3, b, dram.NeighborData{}, dram.Exposure{PressAbove: 0.05})
	if n1 != n2 {
		t.Fatal("trial 0 must be deterministic")
	}
}

// TestCellClustering: vulnerable cells chain into shared 64-bit words with
// correlated thresholds — the substrate of the paper's multi-bit-word ECC
// analysis (§7.1).
func TestCellClustering(t *testing.T) {
	m := testModel()
	multi := 0
	for row := 0; row < 100; row++ {
		words := map[int]int{}
		for _, c := range sortedCells(m, 0, row, streamPress) {
			words[int(c.col)/8]++
		}
		for _, n := range words {
			if n >= 3 {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Fatal("no 3+-cell words across 100 rows; clustering not effective")
	}
}

func TestCellClusterProbValidated(t *testing.T) {
	p := DefaultParams()
	p.CellClusterProb = 1.0
	if err := p.Validate(); err == nil {
		t.Fatal("CellClusterProb=1 should be invalid")
	}
}

func TestNoDuplicateCells(t *testing.T) {
	m := testModel()
	for row := 0; row < 50; row++ {
		seen := map[[2]int]bool{}
		for _, c := range sortedCells(m, 0, row, streamPress) {
			k := [2]int{int(c.col), int(c.bit)}
			if seen[k] {
				t.Fatalf("row %d: duplicate cell %v", row, k)
			}
			seen[k] = true
		}
	}
}

// TestProfilePopulationsSorted pins the invariant the early-exit break in
// applyPress, applyHammer and applyRetention leans on: every population
// of a row profile, as the evaluators read it through Model.cells, is
// sorted ascending by threshold.
func TestProfilePopulationsSorted(t *testing.T) {
	geo := dram.Geometry{Banks: 2, RowsPerBank: 64, RowBytes: 8192}
	longest := 0
	for _, seed := range []uint64{1, 7, 42} {
		m := NewModel(DefaultParams(), geo, seed)
		for bank := 0; bank < geo.Banks; bank++ {
			for row := 0; row < geo.RowsPerBank; row++ {
				for _, stream := range []uint64{streamPress, streamHammer, streamRetention} {
					name, cells := streamNames[stream], sortedCells(m, bank, row, stream)
					longest = max(longest, len(cells))
					for i := 1; i < len(cells); i++ {
						if cells[i].threshold < cells[i-1].threshold {
							t.Fatalf("seed %d bank %d row %d: %s cell %d threshold %g below cell %d's %g",
								seed, bank, row, name, i, cells[i].threshold, i-1, cells[i-1].threshold)
						}
					}
				}
			}
		}
	}
	if longest < 2 {
		t.Fatalf("longest population has %d cells; nothing was ordered", longest)
	}
}
