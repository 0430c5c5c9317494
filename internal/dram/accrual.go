package dram

import "slices"

// Closed-form exposure accrual.
//
// Disturber.Increments is pure in (onTime, offTime, tempC) and returns
// every distance's hammer and press increment in one call, so a periodic
// loop's disturbance is Count × per-slot increment — there is no need to
// walk the loop slot by slot, and each activation (or batch of identical
// activations) evaluates the kernel once. The disturb model memoizes it
// per model, so the attack and scenario loops that repeat one (on, off,
// temperature) thousands of times pay for the exp/pow once. This file is
// the single source of truth for that closed form: the run executor
// (HammerRun, with HammerBatch as its one-window case) and the
// replay-free pure probe (AppendHammerExposures, and
// internal/characterize's search prober on top of it) both drive
// accrueSpec, so they perform bit-identical floating-point operations in
// bit-identical order. The per-command PRE path (Module.accrue) is the
// n = 1, no-skip case of the same walk, unrolled so it pays no closure
// call per victim. That shared order is what lets the golden-report tests
// demand byte equality between the per-command path and the closed form.
//
// A run of windows folds one level further (run.go): once a run is in
// steady state every window hands every row the same increments, and a
// FlipProber check of one window's restores proves the rest flip-free,
// so HammerRun and TraceRun replay that window's victim adds — repeated,
// not multiplied, to keep the floats bit-identical — instead of
// executing each window.

// AggSchedule describes one aggressor row's share of a HammerSpec loop:
// Count activations split round-robin across spec.Rows.
type AggSchedule struct {
	Row      int
	Acts     int // activations this row performs (0: listed row is a plain victim)
	LastSlot int // global slot index of this row's last activation
}

// AppendSchedule appends the loop's per-aggressor activation schedule to
// dst, one entry per spec row in order; a caller with a small array for
// dst schedules without allocating.
func (s HammerSpec) AppendSchedule(dst []AggSchedule) []AggSchedule {
	n := len(s.Rows)
	for idx, r := range s.Rows {
		acts := s.Count / n
		if idx < s.Count%n {
			acts++
		}
		dst = append(dst, AggSchedule{Row: r, Acts: acts, LastSlot: idx + (acts-1)*n})
	}
	return dst
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

// accrueSpec delivers n activation increments from aggRow to every row
// inside the blast radius that skip does not list, folding the n slots
// into one multiply. add receives (victim row, aggressor-above?, hammer,
// press) in a fixed order — distance ascending, lower victim before
// upper — which every accrual path must share for float-exact
// equivalence. skip is a loop's aggressor rows, one to a few entries, so
// a linear scan beats a map probe.
func accrueSpec(dist Disturber, rowsPerBank, aggRow int, onTime, offTime TimePS, tempC float64,
	n int, skip []int, add func(victim int, above bool, h, p float64)) {
	inc := dist.Increments(onTime, offTime, tempC)
	fn := float64(n)
	for d := 1; d <= BlastRadius; d++ {
		h := inc.Hammer[d] * fn
		p := inc.Press[d] * fn
		if h == 0 && p == 0 {
			continue
		}
		if v := aggRow - d; v >= 0 && !slices.Contains(skip, v) {
			add(v, true, h, p)
		}
		if v := aggRow + d; v < rowsPerBank && !slices.Contains(skip, v) {
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

// AppendHammerExposures appends to dst, without executing a single
// command, the exposure deltas spec would deliver to every non-aggressor
// row — the closed form of HammerBatch's bulk-accrual phase,
// accumulating per-victim float sums in the exact order the executor
// does — and returns the extended slice. Aggressor-row mutual exposure is
// excluded: in the command path every aggressor activation wipes its own
// accumulated exposure, so only post-tail residue remains there (see
// HammerBatch), which no search observes. A caller that passes the same
// buffer back, truncated, appends without allocating once it has grown.
//
// firstOff supplies the row-off time preceding each aggressor's first
// activation (the probe harness threads its own virtual precharge
// history); nil falls back to the module's recorded per-row PRE state.
// The appended deltas are sorted by row.
func (m *Module) AppendHammerExposures(dst []VictimExposure, at TimePS, spec HammerSpec, firstOff func(row int, firstActAt TimePS) TimePS) []VictimExposure {
	var sched [4]AggSchedule
	var acts [4]actRow
	w := newHammerWindow(spec, m.Timing, sched[:0], acts[:0])
	// A loop reaches at most 2×BlastRadius victims per aggressor, so the
	// deltas live in a short run found by linear scan.
	start := len(dst)
	w.accrueVictims(m, at, firstOff, func(victim int, above bool, h, p float64) {
		i := start
		for i < len(dst) && dst[i].Row != victim {
			i++
		}
		if i == len(dst) {
			dst = append(dst, VictimExposure{Row: victim})
		}
		e := &dst[i].Exp
		if above {
			e.HammerAbove += h
			e.PressAbove += p
		} else {
			e.HammerBelow += h
			e.PressBelow += p
		}
	})
	slices.SortFunc(dst[start:], func(a, b VictimExposure) int { return a.Row - b.Row })
	return dst
}
