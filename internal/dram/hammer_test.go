package dram

import (
	"math"
	"testing"
	"testing/quick"
)

// Hammer executes the access pattern starting at time at, issuing every
// ACT/PRE through the command path, and returns the completion time. It is
// the per-command reference HammerBatch is held against.
func (m *Module) Hammer(at TimePS, spec HammerSpec) (TimePS, error) {
	if err := spec.Validate(m); err != nil {
		return at, err
	}
	if m.banks[spec.Bank].open {
		return at, timingErr("ACT", spec.Bank, "bank must be precharged before hammering")
	}
	now := at
	for i := 0; i < spec.Count; i++ {
		row := spec.Rows[i%len(spec.Rows)]
		if err := m.Activate(now, spec.Bank, row); err != nil {
			return now, err
		}
		if err := m.Precharge(now+spec.OnTime, spec.Bank); err != nil {
			return now, err
		}
		now += spec.SlotTime(m.Timing)
	}
	return now, nil
}

// probeDisturber is a deterministic toy model whose increments depend on
// every input, so the batch-equivalence test cannot pass by accident.
type probeDisturber struct{}

func (probeDisturber) Increments(on, off TimePS, tempC float64) Increments {
	var inc Increments
	for d := 1; d <= BlastRadius; d++ {
		inc.Hammer[d] = (1 + Seconds(off)*1e3) * tempC / float64(d*d) * 1e-6
		inc.Press[d] = Seconds(on) * tempC / float64(d) * 1e-3
	}
	return inc
}

func (probeDisturber) RetentionAccel(float64) float64 { return 0 }

func (probeDisturber) ApplyFlips(_, _ int, _ []byte, _ NeighborData, _ Exposure) int { return 0 }

func expClose(a, b Exposure) bool {
	near := func(x, y float64) bool {
		if x == y {
			return true
		}
		diff := math.Abs(x - y)
		scale := math.Max(math.Abs(x), math.Abs(y))
		return diff <= 1e-9*scale
	}
	return near(a.HammerAbove, b.HammerAbove) && near(a.HammerBelow, b.HammerBelow) &&
		near(a.PressAbove, b.PressAbove) && near(a.PressBelow, b.PressBelow)
}

// TestHammerBatchEquivalence is the core property test: for any small spec,
// HammerBatch must leave every row's exposure equal to the command-path
// Hammer loop.
func TestHammerBatchEquivalence(t *testing.T) {
	f := func(seed uint64) bool {
		mkSpec := func(s uint64) HammerSpec {
			rows := []int{10 + int(s%5)}
			if s%3 == 0 {
				rows = append(rows, rows[0]+2) // double-sided
			}
			return HammerSpec{
				Bank:     int(s % 2),
				Rows:     rows,
				Count:    1 + int((s/7)%23),
				OnTime:   36*Nanosecond + TimePS(s%11)*100*Nanosecond,
				ExtraOff: TimePS((s/5)%3) * 200 * Nanosecond,
			}
		}
		spec := mkSpec(seed)
		ref := testModule(probeDisturber{})
		bat := testModule(probeDisturber{})
		if _, err := ref.Hammer(0, spec); err != nil {
			t.Logf("hammer error: %v", err)
			return false
		}
		if _, err := bat.HammerBatch(0, spec); err != nil {
			t.Logf("batch error: %v", err)
			return false
		}
		for row := 0; row < ref.Geo.RowsPerBank; row++ {
			if !expClose(ref.View(spec.Bank, row).Exp, bat.View(spec.Bank, row).Exp) {
				t.Logf("row %d: ref=%+v batch=%+v spec=%+v",
					row, ref.View(spec.Bank, row).Exp, bat.View(spec.Bank, row).Exp, spec)
				return false
			}
		}
		if ref.Counters() != bat.Counters() {
			t.Logf("counters differ: %+v vs %+v", ref.Counters(), bat.Counters())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHammerBatchEquivalenceSequential(t *testing.T) {
	// Two back-to-back hammer loops: the second loop's first-activation off
	// time depends on state left by the first, which both paths must track.
	specA := HammerSpec{Bank: 0, Rows: []int{20}, Count: 7, OnTime: 36 * Nanosecond}
	specB := HammerSpec{Bank: 0, Rows: []int{20, 22}, Count: 9, OnTime: 500 * Nanosecond}

	ref := testModule(probeDisturber{})
	bat := testModule(probeDisturber{})
	endR, err := ref.Hammer(0, specA)
	if err != nil {
		t.Fatal(err)
	}
	endB, err := bat.HammerBatch(0, specA)
	if err != nil {
		t.Fatal(err)
	}
	if endR != endB {
		t.Fatalf("end times differ: %d vs %d", endR, endB)
	}
	if _, err := ref.Hammer(endR+Microsecond, specB); err != nil {
		t.Fatal(err)
	}
	if _, err := bat.HammerBatch(endB+Microsecond, specB); err != nil {
		t.Fatal(err)
	}
	for row := 15; row < 30; row++ {
		if !expClose(ref.View(0, row).Exp, bat.View(0, row).Exp) {
			t.Errorf("row %d: ref=%+v batch=%+v", row, ref.View(0, row).Exp, bat.View(0, row).Exp)
		}
	}
}

func TestHammerSpecValidation(t *testing.T) {
	m := testModule(nil)
	bad := []HammerSpec{
		{Bank: 0, Rows: nil, Count: 1, OnTime: 36 * Nanosecond},
		{Bank: 0, Rows: []int{1, 1}, Count: 1, OnTime: 36 * Nanosecond},
		{Bank: 0, Rows: []int{1}, Count: 0, OnTime: 36 * Nanosecond},
		{Bank: 0, Rows: []int{1}, Count: 1, OnTime: 35 * Nanosecond},
		{Bank: 0, Rows: []int{1}, Count: 1, OnTime: 36 * Nanosecond, ExtraOff: -1},
		{Bank: 9, Rows: []int{1}, Count: 1, OnTime: 36 * Nanosecond},
		{Bank: 0, Rows: []int{-1}, Count: 1, OnTime: 36 * Nanosecond},
	}
	for i, s := range bad {
		if err := s.Validate(m); err == nil {
			t.Errorf("spec %d should be invalid: %+v", i, s)
		}
	}
	good := HammerSpec{Bank: 0, Rows: []int{5, 7}, Count: 10, OnTime: 36 * Nanosecond}
	if err := good.Validate(m); err != nil {
		t.Errorf("good spec rejected: %v", err)
	}
}

func TestHammerSpecTimes(t *testing.T) {
	tm := DDR4()
	s := HammerSpec{Rows: []int{1}, Count: 10, OnTime: 100 * Nanosecond, ExtraOff: 20 * Nanosecond}
	slot := s.SlotTime(tm)
	if slot != 100*Nanosecond+tm.TRP+20*Nanosecond {
		t.Fatalf("slot = %d", slot)
	}
	if s.TotalTime(tm) != 10*slot {
		t.Fatalf("total = %d", s.TotalTime(tm))
	}
}

func TestHammerBlastRadiusReach(t *testing.T) {
	m := testModule(probeDisturber{})
	spec := HammerSpec{Bank: 0, Rows: []int{30}, Count: 100, OnTime: 36 * Nanosecond}
	if _, err := m.HammerBatch(0, spec); err != nil {
		t.Fatal(err)
	}
	for d := 1; d <= BlastRadius; d++ {
		if m.View(0, 30-d).Exp.IsZero() || m.View(0, 30+d).Exp.IsZero() {
			t.Errorf("victim at distance %d received no exposure", d)
		}
	}
	if !m.View(0, 30-BlastRadius-1).Exp.IsZero() {
		t.Error("exposure beyond blast radius")
	}
	// Aggressor's own exposure must be clear (it was activated).
	if !m.View(0, 30).Exp.IsZero() {
		t.Error("aggressor retained exposure")
	}
}

func TestHammerSidedness(t *testing.T) {
	m := testModule(probeDisturber{})
	if _, err := m.HammerBatch(0, HammerSpec{Bank: 0, Rows: []int{30}, Count: 10, OnTime: 36 * Nanosecond}); err != nil {
		t.Fatal(err)
	}
	below := m.View(0, 29).Exp // aggressor above it
	above := m.View(0, 31).Exp // aggressor below it
	if below.HammerAbove == 0 || below.HammerBelow != 0 {
		t.Errorf("row 29 sides wrong: %+v", below)
	}
	if above.HammerBelow == 0 || above.HammerAbove != 0 {
		t.Errorf("row 31 sides wrong: %+v", above)
	}
}

func TestRefreshResetsExposure(t *testing.T) {
	geo := Geometry{Banks: 1, RowsPerBank: 16, RowBytes: 64}
	m := NewModule(geo, DDR4(), 50, probeDisturber{})
	if _, err := m.HammerBatch(0, HammerSpec{Bank: 0, Rows: []int{8}, Count: 10, OnTime: 36 * Nanosecond}); err != nil {
		t.Fatal(err)
	}
	if m.View(0, 7).Exp.IsZero() {
		t.Fatal("setup: no exposure")
	}
	// Refresh every row, as the REF commands of one window would.
	now := m.Now() + Microsecond
	for row := 0; row < geo.RowsPerBank; row++ {
		if err := m.RestoreRow(now, 0, row); err != nil {
			t.Fatal(err)
		}
	}
	for row := 0; row < geo.RowsPerBank; row++ {
		if !m.View(0, row).Exp.IsZero() {
			t.Errorf("refresh did not clear the exposure of row %d", row)
		}
	}
}
