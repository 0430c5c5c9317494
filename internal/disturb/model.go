package disturb

import (
	"math"

	"repro/internal/dram"
)

// Model implements dram.Disturber for one module. It is deterministic:
// cell populations derive from (seed, stream, bank, row) hashes, and
// evaluation is pure given the accumulated exposure. A row's press, hammer
// and retention populations are each bounded (a cheap floor under the
// weakest threshold) the first time an evaluation with a nonzero exposure
// of that mechanism reaches the row, sampled the first time such an
// exposure reaches the floor, and sorted the first time one reaches the
// population's weakest cell; most restores stay below the floor and never
// pay for the sampling. One committing evaluation serves ApplyFlips and
// ApplyFlipsLog; the latter also hands the caller the byte offset of
// every flip, so a caller that tracks a row as a fill byte plus touched
// bytes never scans the row. Not safe for
// concurrent use (each module owns its model): the row-profile cache, the
// sampling bitset and the increment memo are unlocked.
type Model struct {
	p        Params
	seed     uint64
	rowBytes int
	rowBits  int
	tempC    float64 // evaluation temperature for coupling interpolation
	trial    uint64  // per-trial jitter salt; 0 = no jitter
	headroom float64 // jitterHeadroom(p.TrialJitter)
	cache    map[uint64]*rowProfile
	seen     []uint64 // one bit per row cell: sampling dedup, all clear between samplings

	memo     [incMemoSize]incEntry // Increments results, round-robin
	memoLen  int                   // filled memo entries
	memoNext int                   // memo slot the next miss overwrites
}

var (
	_ dram.Disturber  = (*Model)(nil)
	_ dram.FlipProber = (*Model)(nil)
)

// NewModel builds a model with the given parameters for a module with the
// given geometry. seed identifies the individual module (chip-to-chip
// variation). It panics on invalid parameters — a calibration bug, not a
// runtime condition.
func NewModel(p Params, geo dram.Geometry, seed uint64) *Model {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Model{
		p:        p,
		seed:     seed,
		rowBytes: geo.RowBytes,
		rowBits:  geo.BitsPerRow(),
		tempC:    50,
		headroom: jitterHeadroom(p.TrialJitter),
		cache:    make(map[uint64]*rowProfile),
		seen:     make([]uint64, (geo.BitsPerRow()+63)/64),
	}
}

// Params returns the model's parameter set.
func (m *Model) Params() Params { return m.p }

// SetTrial selects the repetition-jitter salt. Experiments that repeat a
// measurement (the paper repeats every ACmin search five times) change the
// trial between repetitions; trial 0 disables jitter.
func (m *Model) SetTrial(trial uint64) { m.trial = trial }

// SetEvalTemperature tells the model the chip temperature to use for
// temperature-dependent data couplings during flip evaluation. (Damage
// kernels receive temperature explicitly per activation; coupling is
// evaluated when flips materialize.)
func (m *Model) SetEvalTemperature(tempC float64) { m.tempC = tempC }

// charged reports whether the stored bit leaves the cell's capacitor
// charged, given the cell orientation (footnote 15: true cell ⇒ 1 is
// charged; anti cell ⇒ 0 is charged).
func charged(bitSet, trueCell bool) bool { return bitSet == trueCell }

func bitOf(data []byte, col int32, bit uint8) bool {
	return data[col]&(1<<bit) != 0
}

func setBit(data []byte, col int32, bit uint8, v bool) {
	if v {
		data[col] |= 1 << bit
	} else {
		data[col] &^= 1 << bit
	}
}

// logFlip appends a committed flip's byte offset to *log, if there is a
// log.
func logFlip(log *[]int32, col int32) {
	if log != nil {
		*log = append(*log, col)
	}
}

// neighborBit reads the same-column bit of a neighbor row; ok is false when
// the neighbor's contents are unknown.
func neighborBit(nb []byte, col int32, bit uint8) (val, ok bool) {
	if nb == nil || int(col) >= len(nb) {
		return false, false
	}
	return bitOf(nb, col, bit), true
}

// ApplyFlips implements dram.Disturber. It evaluates the three mechanisms
// against the row's vulnerable-cell populations and mutates data in place.
// It is ApplyFlipsLog without a log, and allocates nothing once the
// populations it reaches are sampled.
func (m *Model) ApplyFlips(bank, row int, data []byte, nb dram.NeighborData, exp dram.Exposure) int {
	return m.applyFlips(bank, row, data, nb, exp, nil)
}

// ApplyFlipsLog is ApplyFlips that also appends the byte offset of every
// flip it commits to log, in commit order, and returns the extended log.
// An offset can repeat: two flips in one byte, or a press flip that a
// hammer flip of the same cell undoes (the byte then holds its old value
// again). Every byte the call changes is in the log; a caller that knows
// a row's contents up to the logged bytes can diff or reset it without
// scanning the row.
func (m *Model) ApplyFlipsLog(bank, row int, data []byte, nb dram.NeighborData, exp dram.Exposure, log []int32) (int, []int32) {
	n := m.applyFlips(bank, row, data, nb, exp, &log)
	return n, log
}

// applyFlips is the one committing evaluation: press, then hammer, then
// retention, each appending its flips' offsets to *log when log is
// non-nil.
func (m *Model) applyFlips(bank, row int, data []byte, nb dram.NeighborData, exp dram.Exposure, log *[]int32) int {
	if data == nil {
		return 0
	}
	prof := m.profile(bank, row)
	flips := 0
	flips += m.applyPress(prof, data, nb, exp, true, log)
	flips += m.applyHammer(prof, data, nb, exp, true, log)
	flips += m.applyRetention(prof, data, exp, true, log)
	return flips
}

// WouldFlip reports whether ApplyFlips would flip at least one cell, as a
// pure function: data is only read, no module or model state changes, and
// evaluation stops at the first crossing cell. Searches probe candidate
// exposures through it without perturbing the measurement — the predicate
// agrees exactly with ApplyFlips(...) > 0 on the same inputs (press flips
// are evaluated first in both, so the press→hammer data interplay inside a
// committing evaluation can never change the any-flip answer).
func (m *Model) WouldFlip(bank, row int, data []byte, nb dram.NeighborData, exp dram.Exposure) bool {
	if data == nil {
		return false
	}
	prof := m.profile(bank, row)
	return m.applyPress(prof, data, nb, exp, false, nil) > 0 ||
		m.applyHammer(prof, data, nb, exp, false, nil) > 0 ||
		m.applyRetention(prof, data, exp, false, nil) > 0
}

// applyPress flips charged cells whose accumulated press exposure crosses
// their threshold. RowPress pulls electrons out of the victim (concurrent
// Samsung work, footnote 14), so flips discharge the cell: 1→0 on true
// cells — the opposite direction of RowHammer (Obsv. 8). With commit
// false it only probes: no mutation, early exit at the first flip. A
// committed flip appends its byte offset to *log when log is non-nil.
func (m *Model) applyPress(prof *rowProfile, data []byte, nb dram.NeighborData, exp dram.Exposure, commit bool, log *[]int32) int {
	pa, pb := exp.PressAbove, exp.PressBelow
	if pa == 0 && pb == 0 {
		return 0
	}
	cplC := tempInterp(m.p.PressCplCharged50, m.p.PressCplCharged80, m.tempC)
	cplD := tempInterp(m.p.PressCplDischgd50, m.p.PressCplDischgd80, m.tempC)
	rho := tempInterp(m.p.PressCrossPenalty50, m.p.PressCrossPenalty80, m.tempC)
	maxDamage := (pa + pb) * math.Max(cplC, cplD) * m.headroom
	cells := m.cells(prof, streamPress, maxDamage)
	flips := 0
	for i := range cells {
		c := &cells[i]
		if c.threshold > maxDamage {
			break // sorted ascending: nothing further can flip
		}
		bit := bitOf(data, c.col, c.bit)
		if !charged(bit, c.trueCell) {
			continue // press only disturbs charged cells
		}
		sideA := pa * m.sideCoupling(nb.Above, c, cplC, cplD)
		sideB := pb * m.sideCoupling(nb.Below, c, cplC, cplD)
		damage := sideA + sideB
		if sideA > 0 && sideB > 0 {
			// Sub-additive cross-side interaction: see PressCrossPenalty.
			damage -= 2 * rho * math.Sqrt(sideA*sideB)
		}
		if damage >= m.effThreshold(*c) {
			if !commit {
				return 1
			}
			setBit(data, c.col, c.bit, !c.trueCell) // discharge
			logFlip(log, c.col)
			flips++
		}
	}
	return flips
}

// applyHammer flips discharged cells: hammering injects electrons into the
// victim, charging it up (0→1 on true cells).
func (m *Model) applyHammer(prof *rowProfile, data []byte, nb dram.NeighborData, exp dram.Exposure, commit bool, log *[]int32) int {
	ha, hb := exp.HammerAbove, exp.HammerBelow
	if ha == 0 && hb == 0 {
		return 0
	}
	// Double-sided super-additivity: aggressors on both sides interact
	// (β = HammerCrossBoost), which is why double-sided RowHammer needs
	// fewer total activations than single-sided.
	cross := 2 * m.p.HammerCrossBoost * math.Sqrt(ha*hb)
	cplC, cplD := m.p.HammerCplCharged, m.p.HammerCplDischgd
	maxDamage := (ha + hb + cross) * math.Max(cplC, cplD) * m.headroom
	cells := m.cells(prof, streamHammer, maxDamage)
	flips := 0
	for i := range cells {
		c := &cells[i]
		if c.threshold > maxDamage {
			break
		}
		bit := bitOf(data, c.col, c.bit)
		if charged(bit, c.trueCell) {
			continue // hammer only charges discharged cells
		}
		sideA := ha * m.sideCoupling(nb.Above, c, cplC, cplD)
		sideB := hb * m.sideCoupling(nb.Below, c, cplC, cplD)
		damage := sideA + sideB
		if ha > 0 && hb > 0 {
			damage += 2 * m.p.HammerCrossBoost * math.Sqrt(sideA*sideB)
		}
		if damage >= m.effThreshold(*c) {
			if !commit {
				return 1
			}
			setBit(data, c.col, c.bit, c.trueCell) // charge up
			logFlip(log, c.col)
			flips++
		}
	}
	return flips
}

// applyRetention discharges charged cells whose retention threshold (in
// stress-seconds) has been exceeded since the last charge restore.
func (m *Model) applyRetention(prof *rowProfile, data []byte, exp dram.Exposure, commit bool, log *[]int32) int {
	if exp.Retention <= 0 {
		return 0
	}
	limit := exp.Retention * m.headroom
	cells := m.cells(prof, streamRetention, limit)
	flips := 0
	for i := range cells {
		c := &cells[i]
		if c.threshold > limit {
			break
		}
		bit := bitOf(data, c.col, c.bit)
		if !charged(bit, c.trueCell) {
			continue
		}
		if exp.Retention >= m.effThreshold(*c) {
			if !commit {
				return 1
			}
			setBit(data, c.col, c.bit, !c.trueCell)
			logFlip(log, c.col)
			flips++
		}
	}
	return flips
}

// sideCoupling returns the aggressor-bit coupling factor for one side: the
// same-column cell of the adjacent row modulates how strongly that side's
// disturbance reaches the victim (§5.3). Unknown neighbors couple neutrally.
func (m *Model) sideCoupling(nbData []byte, c *vulnCell, cplCharged, cplDischarged float64) float64 {
	bit, ok := neighborBit(nbData, c.col, c.bit)
	if !ok {
		return 1
	}
	// Neighbor orientation is irrelevant for its electrostatic state; use
	// the raw stored bit against the victim cell's orientation convention:
	// what matters physically is whether the adjacent capacitor is charged.
	// Approximate the adjacent cell orientation with the victim's (cells in
	// the same column/bit position share layout).
	if charged(bit, c.trueCell) {
		return cplCharged
	}
	return cplDischarged
}

// jitterHeadroom widens the early-exit bound so trial jitter cannot skip a
// cell whose jittered threshold dips below the exposure. 4σ headroom.
func jitterHeadroom(sigma float64) float64 {
	if sigma == 0 {
		return 1
	}
	return math.Exp(4 * sigma)
}
