package dram

import "fmt"

// HammerSpec describes a (Row)Hammer/(Row)Press access-pattern loop, i.e.
// the patterns of Figs. 5, 16, and 21 of the paper:
//
//	repeat: ACT rows[i], keep open OnTime, PRE, wait tRP+ExtraOff — next row
//
// With one row and OnTime = tRAS this is single-sided RowHammer; with a
// large OnTime it is single-sided RowPress; with two rows it is the
// double-sided variant; ExtraOff > 0 yields the RowPress-ONOFF pattern of
// §5.4 where tA2A = OnTime + tRP + ExtraOff.
type HammerSpec struct {
	Bank     int
	Rows     []int  // aggressor rows, activated round-robin
	Count    int    // total activations across all aggressor rows
	OnTime   TimePS // tAggON per activation; min tRAS
	ExtraOff TimePS // extra off time beyond tRP after each PRE
}

// SlotTime returns the duration of one activation slot
// (tAggON + tRP + ExtraOff).
func (s HammerSpec) SlotTime(t Timing) TimePS { return s.OnTime + t.TRP + s.ExtraOff }

// TotalTime returns the duration of the whole loop.
func (s HammerSpec) TotalTime(t Timing) TimePS { return TimePS(s.Count) * s.SlotTime(t) }

// Validate checks the spec against the module's timing and geometry.
func (s HammerSpec) Validate(m *Module) error {
	if err := m.checkBank(s.Bank); err != nil {
		return err
	}
	if len(s.Rows) == 0 {
		return fmt.Errorf("dram: hammer spec needs at least one aggressor row")
	}
	seen := make(map[int]bool, len(s.Rows))
	for _, r := range s.Rows {
		if err := m.checkRow(r); err != nil {
			return err
		}
		if seen[r] {
			return fmt.Errorf("dram: duplicate aggressor row %d", r)
		}
		seen[r] = true
	}
	if s.Count <= 0 {
		return fmt.Errorf("dram: hammer count must be positive, got %d", s.Count)
	}
	if s.OnTime < m.Timing.TRAS {
		return fmt.Errorf("dram: OnTime %s below tRAS %s", FormatTime(s.OnTime), FormatTime(m.Timing.TRAS))
	}
	if s.ExtraOff < 0 {
		return fmt.Errorf("dram: ExtraOff must be non-negative")
	}
	return nil
}

// HammerBatch executes the access pattern starting at time at and returns
// the completion time, in O(aggressors × blast radius) instead of
// O(count): every iteration after the first delivers an identical
// disturbance increment (the closed form in accrual.go). The observable
// effect on every row's exposure is equivalent to issuing every ACT/PRE
// through the command path (up to float summation order); property tests
// hold it against that per-command reference.
func (m *Module) HammerBatch(at TimePS, spec HammerSpec) (TimePS, error) {
	if err := spec.Validate(m); err != nil {
		return at, err
	}
	if m.banks[spec.Bank].open {
		return at, timingErr("ACT", spec.Bank, "bank must be precharged before hammering")
	}
	n := len(spec.Rows)
	slot := spec.SlotTime(m.Timing)
	steadyOff := spec.SteadyOff(m.Timing)
	sched := spec.Schedule()
	// A listed row that never activates (Count < len(Rows)) behaves as a
	// plain victim, so the skip set only contains rows with ≥1 activation.
	isAggressor := make(map[int]bool, n)
	for _, ag := range sched {
		if ag.Acts > 0 {
			isAggressor[ag.Row] = true
		}
	}

	// Phase 1: each aggressor's first activation restores its own charge,
	// materializing any pre-loop exposure exactly as the command path does.
	for idx, ag := range sched {
		if ag.Acts > 0 {
			m.restoreRow(spec.Bank, ag.Row, at+TimePS(idx)*slot)
		}
	}

	// Phase 2: bulk-accrue disturbance to non-aggressor victims through the
	// shared closed form. The first activation uses the off time preceding
	// the loop; the rest use the steady-state off time.
	addExposure := func(victim int, above bool, h, p float64) {
		rs := m.row(spec.Bank, victim)
		if above {
			rs.exp.HammerAbove += h
			rs.exp.PressAbove += p
		} else {
			rs.exp.HammerBelow += h
			rs.exp.PressBelow += p
		}
	}
	for idx, ag := range sched {
		if ag.Acts == 0 {
			continue
		}
		firstActAt := at + TimePS(idx)*slot
		firstOff := m.prevOff(spec.Bank, ag.Row, firstActAt)
		tempC := m.TemperatureAt(at)
		accrueSpec(m.dist, m.Geo.RowsPerBank, ag.Row, spec.OnTime, firstOff, tempC, 1, isAggressor, addExposure)
		if ag.Acts > 1 {
			accrueSpec(m.dist, m.Geo.RowsPerBank, ag.Row, spec.OnTime, steadyOff, tempC, ag.Acts-1, isAggressor, addExposure)
		}
	}

	// Phase 3: every aggressor activation wipes that aggressor's own
	// pending exposure in the command path, so at loop end each aggressor
	// only retains increments from slots after its own last activation.
	// Reset exposure without applying flips (the command path wiped it one
	// sub-threshold increment at a time), then replay the tail slots.
	for _, ag := range sched {
		if ag.Acts == 0 {
			continue
		}
		rs := m.row(spec.Bank, ag.Row)
		rs.exp = Exposure{}
		rs.lastRestore = at + TimePS(ag.LastSlot)*slot
	}
	tailStart := spec.Count - n
	if tailStart < 0 {
		tailStart = 0
	}
	for s := tailStart; s < spec.Count; s++ {
		actIdx := s % n
		actRow := spec.Rows[actIdx]
		off := steadyOff
		if s == actIdx { // this slot is the aggressor's first activation
			off = m.prevOff(spec.Bank, actRow, at+TimePS(s)*slot)
		}
		inc := m.dist.Increments(spec.OnTime, off, m.TemperatureAt(at))
		for j, victim := range spec.Rows {
			if j == actIdx || sched[j].LastSlot >= s || sched[j].Acts == 0 {
				continue
			}
			d := victim - actRow
			if d < 0 {
				d = -d
			}
			if d == 0 || d > BlastRadius {
				continue
			}
			rs := m.row(spec.Bank, victim)
			if actRow > victim {
				rs.exp.HammerAbove += inc.Hammer[d]
				rs.exp.PressAbove += inc.Press[d]
			} else {
				rs.exp.HammerBelow += inc.Hammer[d]
				rs.exp.PressBelow += inc.Press[d]
			}
		}
	}

	// Phase 4: bookkeeping — last PRE time per aggressor, counters, clock.
	for _, ag := range sched {
		if ag.Acts == 0 {
			continue
		}
		m.recordPre(spec.Bank, ag.Row, at+TimePS(ag.LastSlot)*slot+spec.OnTime)
		m.acts += uint64(ag.Acts)
		m.pres += uint64(ag.Acts)
	}
	end := at + TimePS(spec.Count)*slot
	m.banks[spec.Bank].hasPre = true
	m.banks[spec.Bank].lastPreAt = end - m.Timing.TRP - spec.ExtraOff // last PRE instant
	m.advance(end)
	return end, nil
}
