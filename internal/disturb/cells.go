package disturb

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/stats"
)

// Hash-stream identifiers keep the three vulnerable-cell populations (and
// the cell-orientation layout) statistically independent: a cell being weak
// to RowPress says nothing about its RowHammer or retention behaviour,
// which is exactly the paper's Obsv. 7.
const (
	streamPress uint64 = iota + 1
	streamHammer
	streamRetention
	streamOrientation
	streamCount
)

// vulnCell is one vulnerable cell of a row for one failure mechanism.
type vulnCell struct {
	col       int     // byte offset in the row
	bit       uint8   // bit index within the byte
	threshold float64 // damage threshold in mechanism units
	trueCell  bool    // charged state encodes logical 1
	hash      uint64  // identity hash (trial jitter derivation)
}

// rowProfile caches one row's vulnerable cells, each slice sorted by
// ascending threshold so that evaluation can stop early.
type rowProfile struct {
	press     []vulnCell
	hammer    []vulnCell
	retention []vulnCell
}

// sampleRow deterministically generates the vulnerable-cell populations of
// (bank, row) from the model seed. The same (seed, bank, row) always yields
// the same cells.
func (m *Model) sampleRow(bank, row int) *rowProfile {
	prof := &rowProfile{}
	scale := float64(m.rowBits) / ReferenceRowBits
	prof.press = m.samplePopulation(bank, row, streamPress,
		m.p.PressCellsPerRow*scale, m.p.PressLogMedian, m.p.PressLogSigma)
	prof.hammer = m.samplePopulation(bank, row, streamHammer,
		m.p.HammerCellsPerRow*scale, m.p.HammerLogMedian, m.p.HammerLogSigma)
	prof.retention = m.samplePopulation(bank, row, streamRetention,
		m.p.RetCellsPerRow*scale, m.p.RetLogMedian, m.p.RetLogSigma)
	return prof
}

func (m *Model) samplePopulation(bank, row int, stream uint64, lambda, logMedian, logSigma float64) []vulnCell {
	base := stats.Combine(m.seed, stream, uint64(bank), uint64(row))
	rng := stats.NewRNG(base)
	n := rng.Poisson(lambda)
	if n == 0 {
		return nil
	}
	cells := make([]vulnCell, 0, n)
	seen := make(map[uint32]bool, n)
	prevWord := -1
	prevLogThreshold := 0.0
	for i := 0; i < n; i++ {
		h := stats.Combine(base, uint64(i))
		var col int
		var logThreshold float64
		// Weak cells cluster spatially (shared defects): with
		// CellClusterProb the next cell lands in the same 64-bit word as
		// the previous one AND inherits a correlated threshold, so whole
		// clusters flip together — producing the multi-bit words of
		// Fig. 25/26 that defeat SEC-DED and Chipkill.
		if prevWord >= 0 && stats.UnitFromHash(stats.Mix64(h^0xC1)) < m.p.CellClusterProb {
			col = prevWord + int(stats.Mix64(h^0xC2)%8)
			logThreshold = prevLogThreshold + 0.25*logSigma*stats.NormalFromHash(stats.Mix64(h^0xC3))
		} else {
			col = int(stats.Mix64(h) % uint64(m.rowBytes))
			logThreshold = logMedian + logSigma*stats.NormalFromHash(h)
		}
		prevWord = col &^ 7
		prevLogThreshold = logThreshold
		bit := uint8(stats.Mix64(h^0xBEEF) % 8)
		key := uint32(col)<<3 | uint32(bit)
		if seen[key] {
			continue // same physical cell: don't double-count
		}
		seen[key] = true
		cells = append(cells, vulnCell{
			col:       col,
			bit:       bit,
			threshold: expNat(logThreshold),
			trueCell:  m.cellIsTrue(bank, row, col, bit),
			hash:      h,
		})
	}
	slices.SortFunc(cells, func(a, b vulnCell) int { return cmp.Compare(a.threshold, b.threshold) })
	return cells
}

// cellIsTrue samples the true/anti-cell orientation of a cell. The layout
// is a property of the die's circuit design, independent of which failure
// population a cell belongs to.
func (m *Model) cellIsTrue(bank, row, col int, bit uint8) bool {
	h := stats.Combine(m.seed, streamOrientation, uint64(bank), uint64(row), uint64(col), uint64(bit))
	return stats.UnitFromHash(h) < m.p.TrueCellFraction
}

// profile returns the cached (or freshly sampled) profile of a row.
func (m *Model) profile(bank, row int) *rowProfile {
	key := uint64(bank)<<40 | uint64(uint32(row))
	if prof, ok := m.cache[key]; ok {
		return prof
	}
	prof := m.sampleRow(bank, row)
	m.cache[key] = prof
	return prof
}

// effThreshold applies the per-trial jitter to a cell's threshold: cells
// close to the exposure boundary flip in only some of an experiment's
// repetitions, giving the partial repeatability of Appendix E.
func (m *Model) effThreshold(c vulnCell) float64 {
	if m.p.TrialJitter == 0 || m.trial == 0 {
		return c.threshold
	}
	z := stats.NormalFromHash(stats.Combine(c.hash, m.trial))
	return c.threshold * expFast(m.p.TrialJitter*z)
}

// expFast is a cheap exp approximation adequate for jitter factors near 1
// (|x| ≲ 1): a 4-term Taylor series. Exactness is irrelevant here — only
// determinism and monotonicity matter.
func expFast(x float64) float64 {
	return 1 + x*(1+x*(0.5+x*(1.0/6+x/24)))
}

// expNat is math.Exp under a local name (keeps the sampling hot path's
// imports obvious).
func expNat(x float64) float64 { return math.Exp(x) }
