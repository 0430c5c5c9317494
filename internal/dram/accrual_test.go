package dram

import (
	"bytes"
	"testing"
	"testing/quick"
)

func randSpec(s uint64) HammerSpec {
	rows := []int{10 + int(s%5)}
	if s%3 == 0 {
		rows = append(rows, rows[0]+2) // double-sided
	}
	return HammerSpec{
		Bank:     int(s % 2),
		Rows:     rows,
		Count:    1 + int((s/7)%60),
		OnTime:   36*Nanosecond + TimePS(s%11)*100*Nanosecond,
		ExtraOff: TimePS((s/5)%3) * 200 * Nanosecond,
	}
}

// TestHammerExposuresMatchesBatch pins the closed form to the executor
// bit for bit: for random specs, the pure AppendHammerExposures deltas must
// equal exactly (not approximately) the exposure HammerBatch deposits on
// every non-aggressor row — they share accrueSpec, so any divergence is
// an ordering bug.
func TestHammerExposuresMatchesBatch(t *testing.T) {
	f := func(seed uint64) bool {
		spec := randSpec(seed)
		pure := testModule(probeDisturber{})
		exec := testModule(probeDisturber{})
		deltas := pure.AppendHammerExposures(nil, 0, spec, nil)
		if _, err := exec.HammerBatch(0, spec); err != nil {
			t.Logf("batch error: %v", err)
			return false
		}
		byRow := make(map[int]Exposure, len(deltas))
		for _, d := range deltas {
			byRow[d.Row] = d.Exp
		}
		isAgg := make(map[int]bool)
		for _, ag := range spec.AppendSchedule(nil) {
			if ag.Acts > 0 {
				isAgg[ag.Row] = true
			}
		}
		for row := 0; row < exec.Geo.RowsPerBank; row++ {
			if isAgg[row] {
				continue // aggressor residue is the executor's tail replay, not the closed form
			}
			if got := exec.View(spec.Bank, row).Exp; got != byRow[row] {
				t.Logf("row %d: batch=%+v pure=%+v spec=%+v", row, got, byRow[row], spec)
				return false
			}
		}
		// The pure evaluation must not have touched the module.
		for row := 0; row < pure.Geo.RowsPerBank; row++ {
			if !pure.View(spec.Bank, row).Exp.IsZero() {
				t.Logf("AppendHammerExposures mutated row %d", row)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestHammerPathsFlipEquivalence is the end-to-end differential property:
// random specs play through the per-command Hammer loop and the
// closed-form HammerBatch on separate modules with initialized data, and
// after restoring every touched row the materialized flips (the stored
// bytes) must be identical.
func TestHammerPathsFlipEquivalence(t *testing.T) {
	dist := thresholdDisturber{hInc: 0.9, pInc: 80, threshold: 11}
	f := func(seed uint64) bool {
		spec := randSpec(seed)
		ref := testModule(dist)
		bat := testModule(dist)
		for _, m := range []*Module{ref, bat} {
			for row := 5; row <= 20; row++ {
				if err := m.InitRow(0, spec.Bank, row, 0x5A); err != nil {
					t.Fatal(err)
				}
			}
		}
		endR, err := ref.Hammer(Microsecond, spec)
		if err != nil {
			t.Logf("hammer: %v", err)
			return false
		}
		endB, err := bat.HammerBatch(Microsecond, spec)
		if err != nil {
			t.Logf("batch: %v", err)
			return false
		}
		if endR != endB {
			t.Logf("end times differ: %d vs %d", endR, endB)
			return false
		}
		at := endR + Microsecond
		for row := 5; row <= 20; row++ {
			if err := ref.RestoreRow(at, spec.Bank, row); err != nil {
				t.Fatal(err)
			}
			if err := bat.RestoreRow(at, spec.Bank, row); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref.PeekRow(spec.Bank, row), bat.PeekRow(spec.Bank, row)) {
				t.Logf("row %d: flips differ after restore (spec %+v)", row, spec)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// probingThreshold extends thresholdDisturber with the FlipProber
// predicate, implemented independently of ApplyFlips so the equivalence
// check is meaningful. It allocates nothing, so allocation tests can
// count what the module itself copies.
type probingThreshold struct{ thresholdDisturber }

func (d probingThreshold) WouldFlip(bank, row int, data []byte, nb NeighborData, exp Exposure) bool {
	sum := exp.HammerAbove + exp.HammerBelow + exp.PressAbove + exp.PressBelow
	for i := range data {
		w := 1.0
		if i < len(nb.Above) && nb.Above[i]&1 != 0 {
			w = 1.5
		}
		if sum*w+exp.Retention*1e-9 >= d.threshold*float64(i+1) {
			return true
		}
	}
	return false
}

// TestProbeCheckRandomTraces drives randomized variable-dwell traces
// through the command path — every other one with a preventive refresh
// burning pending flips into a victim mid-trace — then holds the pure
// probe of the victim rows to the ProbeCheck contract against the fetch
// stream executed right after, on the very same module. It runs under
// both a plain disturber and a FlipProber one.
func TestProbeCheckRandomTraces(t *testing.T) {
	base := thresholdDisturber{hInc: 1.2, pInc: 120, threshold: 9}
	for _, dist := range []Disturber{base, probingThreshold{base}} {
		t.Run("", func(t *testing.T) { probeCheckRandomTraces(t, dist) })
	}
}

func probeCheckRandomTraces(t *testing.T, dist Disturber) {
	victims := []int{29, 31, 33, 35, 28, 36, 27, 37}
	f := func(seed uint64) bool {
		m := testModule(dist)
		tm := m.Timing
		for row := 24; row <= 40; row++ {
			if err := m.InitRow(0, 0, row, 0x3C); err != nil {
				t.Fatal(err)
			}
		}
		aggs := []int{30, 32, 34}
		n := 20 + int(seed%200)
		slotFn := func(i int) Slot {
			h := seed + uint64(i)*0x9E3779B9
			return Slot{
				Row:      aggs[h%uint64(len(aggs))],
				OnTime:   tm.TRAS + TimePS(h%5)*900*Nanosecond,
				ExtraOff: TimePS((h/7)%3) * 300 * Nanosecond,
			}
		}
		end, err := m.PlayTrace(Microsecond, 0, n, slotFn, nil)
		if err != nil {
			t.Fatal(err)
		}
		if seed%2 == 0 {
			if err := m.RestoreRow(end, 0, victims[(seed/2)%uint64(len(victims))]); err != nil {
				t.Fatal(err)
			}
			if end, err = m.PlayTrace(end, 0, n/2, slotFn, nil); err != nil {
				t.Fatal(err)
			}
		}
		checkProbeCheck(t, m, end, victims, 0x3C)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
