package disturb

import (
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

// vulnCell is one vulnerable cell of a row for one failure mechanism. The
// field order packs it into 24 bytes.
type vulnCell struct {
	threshold float64 // damage threshold in mechanism units
	hash      uint64  // identity hash (trial jitter derivation)
	col       int32   // byte offset in the row
	bit       uint8   // bit index within the byte
	trueCell  bool    // charged state encodes logical 1
}

// population is one mechanism's vulnerable cells of a row. It is sampled
// the first time an evaluation of that mechanism reaches the row, and
// sorted by ascending threshold the first time an exposure reaches its
// weakest cell; until then the cells stay in sampling order.
type population struct {
	cells   []vulnCell
	weakest float64 // minimum threshold; +Inf when empty
	sampled bool
	sorted  bool
}

// rowProfile caches one row's three vulnerable-cell populations, indexed
// by stream - streamPress.
type rowProfile struct {
	bank, row int
	pops      [streamRetention]population
}

// cells returns the stream's population of the profiled row, sorted
// ascending by threshold, or nil when its weakest cell lies above limit.
// A threshold-ordered scan that stops at the first cell above limit sees
// no cell in that case, so the population need not be sorted for it.
func (m *Model) cells(prof *rowProfile, stream uint64, limit float64) []vulnCell {
	pop := &prof.pops[stream-streamPress]
	if !pop.sampled {
		m.samplePopulation(pop, prof.bank, prof.row, stream)
	}
	if pop.weakest > limit {
		return nil
	}
	if !pop.sorted {
		slices.SortFunc(pop.cells, func(a, b vulnCell) int {
			switch {
			case a.threshold < b.threshold:
				return -1
			case a.threshold > b.threshold:
				return 1
			}
			return 0
		})
		pop.sorted = true
	}
	return pop.cells
}

// samplePopulation deterministically generates the stream's vulnerable
// cells of (bank, row) from the model seed, in sampling order. The same
// (seed, stream, bank, row) always yields the same cells.
func (m *Model) samplePopulation(pop *population, bank, row int, stream uint64) {
	scale := float64(m.rowBits) / ReferenceRowBits
	var lambda, logMedian, logSigma float64
	switch stream {
	case streamPress:
		lambda, logMedian, logSigma = m.p.PressCellsPerRow*scale, m.p.PressLogMedian, m.p.PressLogSigma
	case streamHammer:
		lambda, logMedian, logSigma = m.p.HammerCellsPerRow*scale, m.p.HammerLogMedian, m.p.HammerLogSigma
	default:
		lambda, logMedian, logSigma = m.p.RetCellsPerRow*scale, m.p.RetLogMedian, m.p.RetLogSigma
	}
	pop.sampled = true
	pop.weakest = math.Inf(1)
	base := stats.Combine(m.seed, stream, uint64(bank), uint64(row))
	rng := stats.NewRNG(base)
	n := rng.Poisson(lambda)
	if n == 0 {
		return
	}
	cells := make([]vulnCell, 0, n)
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
		key := uint(col)<<3 | uint(bit)
		if m.seen[key/64]&(1<<(key%64)) != 0 {
			continue // same physical cell: don't double-count
		}
		m.seen[key/64] |= 1 << (key % 64)
		c := vulnCell{
			threshold: expNat(logThreshold),
			hash:      h,
			col:       int32(col),
			bit:       bit,
			trueCell:  m.cellIsTrue(bank, row, col, bit),
		}
		pop.weakest = min(pop.weakest, c.threshold)
		cells = append(cells, c)
	}
	// Clear exactly the bits this population set: the bitset is shared by
	// every population the model samples.
	for _, c := range cells {
		key := uint(c.col)<<3 | uint(c.bit)
		m.seen[key/64] &^= 1 << (key % 64)
	}
	pop.cells = cells
}

// cellIsTrue samples the true/anti-cell orientation of a cell. The layout
// is a property of the die's circuit design, independent of which failure
// population a cell belongs to. UnitFromHash lies in (0,1), so a fraction
// of 0 or 1 decides every cell without hashing.
func (m *Model) cellIsTrue(bank, row, col int, bit uint8) bool {
	switch m.p.TrueCellFraction {
	case 0:
		return false
	case 1:
		return true
	}
	h := stats.Combine(m.seed, streamOrientation, uint64(bank), uint64(row), uint64(col), uint64(bit))
	return stats.UnitFromHash(h) < m.p.TrueCellFraction
}

// profile returns the cached (or freshly created) profile of a row. Its
// populations are sampled on first use by cells.
func (m *Model) profile(bank, row int) *rowProfile {
	key := uint64(bank)<<40 | uint64(uint32(row))
	if prof, ok := m.cache[key]; ok {
		return prof
	}
	prof := &rowProfile{bank: bank, row: row}
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
