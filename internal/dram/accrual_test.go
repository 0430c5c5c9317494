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
// bit for bit: for random specs, the pure HammerExposures deltas must
// equal exactly (not approximately) the exposure HammerBatch deposits on
// every non-aggressor row — they share accrueSpec, so any divergence is
// an ordering bug.
func TestHammerExposuresMatchesBatch(t *testing.T) {
	f := func(seed uint64) bool {
		spec := randSpec(seed)
		pure := testModule(probeDisturber{})
		exec := testModule(probeDisturber{})
		deltas := pure.HammerExposures(0, spec, nil)
		if _, err := exec.HammerBatch(0, spec); err != nil {
			t.Logf("batch error: %v", err)
			return false
		}
		byRow := make(map[int]Exposure, len(deltas))
		for _, d := range deltas {
			byRow[d.Row] = d.Exp
		}
		isAgg := make(map[int]bool)
		for _, ag := range spec.Schedule() {
			if ag.Acts > 0 {
				isAgg[ag.Row] = true
			}
		}
		for row := 0; row < exec.Geo.RowsPerBank; row++ {
			if isAgg[row] {
				continue // aggressor residue is the executor's tail replay, not the closed form
			}
			if got := exec.PendingExposure(spec.Bank, row); got != byRow[row] {
				t.Logf("row %d: batch=%+v pure=%+v spec=%+v", row, got, byRow[row], spec)
				return false
			}
		}
		// The pure evaluation must not have touched the module.
		for row := 0; row < pure.Geo.RowsPerBank; row++ {
			if !pure.PendingExposure(spec.Bank, row).IsZero() {
				t.Logf("HammerExposures mutated row %d", row)
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

// TestProbeFetchRandomTraces drives randomized variable-dwell traces
// through the command path, then checks that the pure probe of the victim
// rows equals a real fetch stream executed right after — on the very same
// module, since the probe must not perturb it. It runs under both a plain
// disturber (ProbeWouldFlip falls back to the counting walk) and a
// FlipProber one (the copy-free early-exit walk).
func TestProbeFetchRandomTraces(t *testing.T) {
	base := thresholdDisturber{hInc: 1.2, pInc: 120, threshold: 9}
	for _, dist := range []Disturber{base, probingThreshold{base}} {
		t.Run("", func(t *testing.T) { probeFetchRandomTraces(t, dist) })
	}
}

func probeFetchRandomTraces(t *testing.T, dist Disturber) {
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
		victims := []int{29, 31, 33, 35, 28, 36, 27, 37}
		probes, _, err := m.ProbeFetch(end, 0, victims)
		if err != nil {
			t.Fatal(err)
		}
		// The any-flip predicate must agree with the counting probe.
		total := 0
		for _, p := range probes {
			total += p.Flips
		}
		hit, err := m.ProbeWouldFlip(end, 0, victims)
		if err != nil {
			t.Fatal(err)
		}
		if hit != (total > 0) {
			t.Logf("seed %d: ProbeWouldFlip=%v but ProbeFetch found %d flips", seed, hit, total)
			return false
		}
		now := end
		for i, v := range victims {
			data, fin, err := m.FetchRow(now, 0, v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, probes[i].Data) {
				t.Logf("seed %d: victim %d probe/fetch mismatch", seed, v)
				return false
			}
			now = fin
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
