package dram

import "sort"

// Closed-form exposure accrual.
//
// Disturber.Increments is pure in (onTime, offTime, tempC) and returns
// every distance's hammer and press increment in one call, so a periodic
// loop's disturbance is Count × per-slot increment — there is no need to
// walk the loop slot by slot, and each activation (or batch of identical
// activations) evaluates the kernel once. The disturb model memoizes it
// per model, so the attack and scenario loops that repeat one (on, off,
// temperature) thousands of times pay for the exp/pow once. This file is
// the single source of truth for that closed form: the batched executor
// (HammerBatch) and the replay-free pure probe (HammerExposures, and
// internal/characterize's search prober on top of it) both drive
// accrueSpec, so they perform bit-identical floating-point operations in
// bit-identical order. The per-command PRE path (Module.accrue) is the
// n = 1, no-skip case of the same walk, unrolled so it pays no closure call
// per victim. That shared order is what lets the golden-report tests
// demand byte equality between the per-command path and the closed form.

// AggSchedule describes one aggressor row's share of a HammerSpec loop:
// Count activations split round-robin across spec.Rows.
type AggSchedule struct {
	Row      int
	Acts     int // activations this row performs (0: listed row is a plain victim)
	LastSlot int // global slot index of this row's last activation
}

// Schedule returns the per-aggressor activation schedule of the loop.
func (s HammerSpec) Schedule() []AggSchedule {
	n := len(s.Rows)
	sched := make([]AggSchedule, n)
	for idx, r := range s.Rows {
		acts := s.Count / n
		if idx < s.Count%n {
			acts++
		}
		sched[idx] = AggSchedule{Row: r, Acts: acts, LastSlot: idx + (acts-1)*n}
	}
	return sched
}

// SteadyOff returns the steady-state off time of one aggressor between its
// own activations — the other aggressors' on-times plus every slot's gap —
// capped at the fully recovered bound.
func (s HammerSpec) SteadyOff(t Timing) TimePS {
	n := len(s.Rows)
	off := TimePS(n-1)*s.OnTime + TimePS(n)*(t.TRP+s.ExtraOff)
	if off > recoveredOff {
		off = recoveredOff
	}
	return off
}

// accrueSpec delivers n activation increments from aggRow to every
// non-skipped row inside the blast radius, folding the n slots into one
// multiply. add receives (victim row, aggressor-above?, hammer, press) in
// a fixed order — distance ascending, lower victim before upper — which
// every accrual path must share for float-exact equivalence.
func accrueSpec(dist Disturber, rowsPerBank, aggRow int, onTime, offTime TimePS, tempC float64,
	n int, skip map[int]bool, add func(victim int, above bool, h, p float64)) {
	inc := dist.Increments(onTime, offTime, tempC)
	fn := float64(n)
	for d := 1; d <= BlastRadius; d++ {
		h := inc.Hammer[d] * fn
		p := inc.Press[d] * fn
		if h == 0 && p == 0 {
			continue
		}
		// A nil skip set would still cost a runtime map probe per victim.
		if v := aggRow - d; v >= 0 && (skip == nil || !skip[v]) {
			add(v, true, h, p)
		}
		if v := aggRow + d; v < rowsPerBank && (skip == nil || !skip[v]) {
			add(v, false, h, p)
		}
	}
}

// AccrueOne walks one activation's blast-radius increments (aggRow open
// for onTime after offTime) through the shared accrual order, handing
// each (victim, aggressor-above?, hammer, press) increment to add.
// External probe harnesses use it so their overlays perform the same
// float operations as the module's own PRE path.
func (m *Module) AccrueOne(aggRow int, onTime, offTime TimePS, tempC float64, add func(victim int, above bool, h, p float64)) {
	accrueSpec(m.dist, m.Geo.RowsPerBank, aggRow, onTime, offTime, tempC, 1, nil, add)
}

// VictimExposure is the closed-form exposure delta a hammer loop delivers
// to one victim row.
type VictimExposure struct {
	Row int
	Exp Exposure
}

// HammerExposures computes, without executing a single command, the
// exposure deltas spec would deliver to every non-aggressor row — the
// closed form of HammerBatch's bulk-accrual phase, accumulating per-victim
// float sums in the exact order the executor does. Aggressor-row mutual
// exposure is excluded: in the command path every aggressor activation
// wipes its own accumulated exposure, so only post-tail residue remains
// there (see HammerBatch), which no search observes.
//
// firstOff supplies the row-off time preceding each aggressor's first
// activation (the probe harness threads its own virtual precharge
// history); nil falls back to the module's recorded per-row PRE state.
// Results are sorted by row.
func (m *Module) HammerExposures(at TimePS, spec HammerSpec, firstOff func(row int, firstActAt TimePS) TimePS) []VictimExposure {
	if firstOff == nil {
		firstOff = func(row int, firstActAt TimePS) TimePS {
			return m.prevOff(spec.Bank, row, firstActAt)
		}
	}
	sched := spec.Schedule()
	isAggressor := make(map[int]bool, len(sched))
	for _, ag := range sched {
		if ag.Acts > 0 {
			isAggressor[ag.Row] = true
		}
	}
	slot := spec.SlotTime(m.Timing)
	steadyOff := spec.SteadyOff(m.Timing)
	tempC := m.TemperatureAt(at)

	deltas := make(map[int]*Exposure)
	add := func(victim int, above bool, h, p float64) {
		e := deltas[victim]
		if e == nil {
			e = &Exposure{}
			deltas[victim] = e
		}
		if above {
			e.HammerAbove += h
			e.PressAbove += p
		} else {
			e.HammerBelow += h
			e.PressBelow += p
		}
	}
	for idx, ag := range sched {
		if ag.Acts == 0 {
			continue
		}
		fOff := firstOff(ag.Row, at+TimePS(idx)*slot)
		accrueSpec(m.dist, m.Geo.RowsPerBank, ag.Row, spec.OnTime, fOff, tempC, 1, isAggressor, add)
		if ag.Acts > 1 {
			accrueSpec(m.dist, m.Geo.RowsPerBank, ag.Row, spec.OnTime, steadyOff, tempC, ag.Acts-1, isAggressor, add)
		}
	}

	out := make([]VictimExposure, 0, len(deltas))
	for row, e := range deltas {
		out = append(out, VictimExposure{Row: row, Exp: *e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Row < out[j].Row })
	return out
}
