package disturb

import (
	"bytes"
	"testing"

	"repro/internal/dram"
)

func filled(n int, b byte) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func TestApplyFlipsNilData(t *testing.T) {
	m := testModel()
	if n := m.ApplyFlips(0, 1, nil, dram.NeighborData{}, dram.Exposure{PressAbove: 1e9}); n != 0 {
		t.Fatalf("nil data flipped %d bits", n)
	}
}

func TestApplyFlipsDeterministic(t *testing.T) {
	exp := dram.Exposure{PressAbove: 0.2, HammerBelow: 5e5}
	a := filled(1024, 0x55)
	b := filled(1024, 0x55)
	m1 := testModel()
	m2 := testModel()
	n1 := m1.ApplyFlips(0, 7, a, dram.NeighborData{}, exp)
	n2 := m2.ApplyFlips(0, 7, b, dram.NeighborData{}, exp)
	if n1 != n2 || !bytes.Equal(a, b) {
		t.Fatalf("nondeterministic flips: %d vs %d", n1, n2)
	}
	if n1 == 0 {
		t.Fatal("expected some flips under massive exposure")
	}
}

// TestPressFlipDirection: with all-true cells, press flips 1→0 only
// (Obsv. 8: RowPress pulls charge out of the victim).
func TestPressFlipDirection(t *testing.T) {
	m := testModel()
	data := filled(1024, 0xFF)
	orig := append([]byte(nil), data...)
	n := m.ApplyFlips(0, 3, data, dram.NeighborData{}, dram.Exposure{PressAbove: 1})
	if n == 0 {
		t.Fatal("no press flips at exposure 1s")
	}
	for i := range data {
		if data[i]&^orig[i] != 0 {
			t.Fatalf("byte %d gained bits under press: %08b -> %08b", i, orig[i], data[i])
		}
	}
}

// TestHammerFlipDirection: hammer charges cells, so 0→1 on true cells.
func TestHammerFlipDirection(t *testing.T) {
	m := testModel()
	data := filled(1024, 0x00)
	n := m.ApplyFlips(0, 3, data, dram.NeighborData{}, dram.Exposure{HammerAbove: 1e7})
	if n == 0 {
		t.Fatal("no hammer flips at 1e7 equivalent activations")
	}
	ones := 0
	for _, b := range data {
		for i := 0; i < 8; i++ {
			if b&(1<<i) != 0 {
				ones++
			}
		}
	}
	if ones != n {
		t.Fatalf("hammer flipped %d cells but %d ones appeared", n, ones)
	}
}

// TestPressNeedsChargedCells: an all-zero victim (RowStripe pattern) has no
// charged cells (all-true-cell die), so RowPress cannot flip anything —
// this is why RowStripe "cannot induce any bitflip for tAggON larger than
// 636 ns" in Fig. 19.
func TestPressNeedsChargedCells(t *testing.T) {
	m := testModel()
	data := filled(1024, 0x00)
	if n := m.ApplyFlips(0, 5, data, dram.NeighborData{}, dram.Exposure{PressAbove: 10}); n != 0 {
		t.Fatalf("press flipped %d bits of a fully discharged row", n)
	}
}

// TestHammerNeedsDischargedCells: symmetric statement for hammer.
func TestHammerNeedsDischargedCells(t *testing.T) {
	m := testModel()
	data := filled(1024, 0xFF)
	if n := m.ApplyFlips(0, 5, data, dram.NeighborData{}, dram.Exposure{HammerAbove: 1e8}); n != 0 {
		t.Fatalf("hammer flipped %d bits of a fully charged row", n)
	}
}

func TestFlipMonotoneInExposure(t *testing.T) {
	m := testModel()
	low := filled(1024, 0xFF)
	high := filled(1024, 0xFF)
	nLow := m.ApplyFlips(0, 9, low, dram.NeighborData{}, dram.Exposure{PressAbove: 0.02})
	nHigh := m.ApplyFlips(0, 9, high, dram.NeighborData{}, dram.Exposure{PressAbove: 0.5})
	if nLow > nHigh {
		t.Fatalf("more flips at lower exposure: %d > %d", nLow, nHigh)
	}
}

func TestRetentionFlips(t *testing.T) {
	m := testModel()
	// 4 s at 80 °C = 32 stress-seconds: the paper's retention test (§4.3).
	// Weak cells are sparse; aggregate across rows.
	total := 0
	for row := 0; row < 50; row++ {
		data := filled(1024, 0xFF)
		total += m.ApplyFlips(0, row, data, dram.NeighborData{}, dram.Exposure{Retention: 32})
	}
	if total == 0 {
		t.Fatal("no retention flips after 4s @ 80C equivalent across 50 rows")
	}
	// A 60 ms test window must NOT cause retention flips (the paper bounds
	// experiments within the refresh window to exclude retention effects).
	data2 := filled(1024, 0xFF)
	if n := m.ApplyFlips(0, 11, data2, dram.NeighborData{}, dram.Exposure{Retention: 0.06 * 8}); n != 0 {
		t.Fatalf("60ms window caused %d retention flips", n)
	}
}

// TestPopulationIndependence: press-vulnerable and hammer-vulnerable cells
// barely overlap (Obsv. 7).
func TestPopulationIndependence(t *testing.T) {
	m := testModel()
	pressSet := make(map[[2]int]bool)
	overlap, total := 0, 0
	for row := 0; row < 200; row++ {
		for _, c := range sortedCells(m, 0, row, streamPress) {
			pressSet[[2]int{int(c.col), int(c.bit)}] = true
		}
		for _, c := range sortedCells(m, 0, row, streamHammer) {
			total++
			if pressSet[[2]int{int(c.col), int(c.bit)}] {
				overlap++
			}
		}
		clear(pressSet)
	}
	if total == 0 {
		t.Fatal("no hammer cells sampled")
	}
	frac := float64(overlap) / float64(total)
	if frac > 0.01 {
		t.Fatalf("press/hammer cell overlap %.4f, want <0.01", frac)
	}
}

func TestTrialJitterChangesMarginalCells(t *testing.T) {
	m := testModel()
	m.SetEvalTemperature(50)
	// Find an exposure that flips at least one cell, then check that across
	// trials the flip count varies for some row (marginal cells exist).
	varies := false
	for row := 0; row < 50 && !varies; row++ {
		counts := make(map[int]bool)
		for trial := uint64(1); trial <= 5; trial++ {
			m.SetTrial(trial)
			data := filled(1024, 0xFF)
			n := m.ApplyFlips(0, row, data, dram.NeighborData{}, dram.Exposure{PressAbove: 0.05})
			counts[n] = true
		}
		if len(counts) > 1 {
			varies = true
		}
	}
	m.SetTrial(0)
	if !varies {
		t.Fatal("trial jitter never changed any outcome across 50 rows")
	}
}

func TestAggressorCouplingAffectsFlips(t *testing.T) {
	m := testModel()
	m.SetEvalTemperature(50)
	// Same victim and exposure, neighbors charged vs discharged: coupling
	// must change the damage and may change flip counts. At minimum the
	// result must be deterministic and direction-correct.
	charged := filled(1024, 0xFF)
	discharged := filled(1024, 0x00)
	exp := dram.Exposure{PressAbove: 0.08, PressBelow: 0.08}

	v1 := filled(1024, 0xFF)
	n1 := m.ApplyFlips(0, 21, v1, dram.NeighborData{Above: charged, Below: charged}, exp)
	v2 := filled(1024, 0xFF)
	n2 := m.ApplyFlips(0, 21, v2, dram.NeighborData{Above: discharged, Below: discharged}, exp)
	// At 50 °C charged-aggressor coupling (1.35) > discharged (0.95).
	if n1 < n2 {
		t.Fatalf("charged-aggressor coupling should flip at least as many cells: %d < %d", n1, n2)
	}
}

func TestDoubleSidedHammerSuperAdditive(t *testing.T) {
	m := testModel()
	// N total activations split across two sides must beat N on one side
	// thanks to the cross boost.
	one := filled(1024, 0x00)
	both := filled(1024, 0x00)
	nOne := m.ApplyFlips(0, 33, one, dram.NeighborData{}, dram.Exposure{HammerAbove: 4e5})
	nBoth := m.ApplyFlips(0, 33, both, dram.NeighborData{}, dram.Exposure{HammerAbove: 2e5, HammerBelow: 2e5})
	if nBoth < nOne {
		t.Fatalf("double-sided hammer should dominate: %d < %d", nBoth, nOne)
	}
}
