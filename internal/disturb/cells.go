package disturb

import (
	"math"
	"math/bits"
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

// population is one mechanism's vulnerable cells of a row. It moves
// through four states, each entered the first time an evaluation of that
// mechanism needs it:
//
//   - unbounded: nothing is known; weakest is 0, a valid bound on any
//     threshold.
//   - bounded: weakest holds weakestBound's lower bound on the minimum
//     threshold, and cells is still nil. Most exposures stay below it,
//     and the population is never sampled.
//   - sampled: cells holds the population in sampling order, and
//     weakest is its exact minimum threshold (+Inf when empty).
//   - sorted: cells is sorted by ascending threshold.
//
// In every state weakest never exceeds the true minimum, so one test of it
// against an exposure's limit decides whether a state needs advancing.
type population struct {
	cells   []vulnCell
	weakest float64
	state   popState
}

// popState is a population's progress; see population.
type popState uint8

const (
	popUnbounded popState = iota
	popBounded
	popSampled
	popSorted
)

// rowProfile caches one row's three vulnerable-cell populations, indexed
// by stream - streamPress.
type rowProfile struct {
	bank, row int
	pops      [streamRetention]population
}

// cells returns the stream's population of the profiled row, sorted
// ascending by threshold, or nil when its weakest cell lies above limit.
// A threshold-ordered scan that stops at the first cell above limit sees
// no cell in that case, so the population need not be sampled, or
// sorted, for it: each state is advanced only once weakest, a lower bound
// in every state, fails to prove that.
func (m *Model) cells(prof *rowProfile, stream uint64, limit float64) []vulnCell {
	pop := &prof.pops[stream-streamPress]
	for {
		if pop.weakest > limit {
			return nil
		}
		switch pop.state {
		case popUnbounded:
			pop.weakest = m.weakestBound(prof.bank, prof.row, stream)
			pop.state = popBounded
		case popBounded:
			m.samplePopulation(pop, prof.bank, prof.row, stream)
		case popSampled:
			slices.SortFunc(pop.cells, func(a, b vulnCell) int {
				switch {
				case a.threshold < b.threshold:
					return -1
				case a.threshold > b.threshold:
					return 1
				}
				return 0
			})
			pop.state = popSorted
		default:
			return pop.cells
		}
	}
}

// draws returns what every draw of the stream's population of (bank,
// row) derives from: the root of the per-cell hashes (see cellHash), the
// Poisson cell count, and the log-normal threshold parameters. All are
// pure in (seed, stream, bank, row).
func (m *Model) draws(bank, row int, stream uint64) (h0 uint64, n int, logMedian, logSigma float64) {
	scale := float64(m.rowBits) / ReferenceRowBits
	var lambda float64
	switch stream {
	case streamPress:
		lambda, logMedian, logSigma = m.p.PressCellsPerRow*scale, m.p.PressLogMedian, m.p.PressLogSigma
	case streamHammer:
		lambda, logMedian, logSigma = m.p.HammerCellsPerRow*scale, m.p.HammerLogMedian, m.p.HammerLogSigma
	default:
		lambda, logMedian, logSigma = m.p.RetCellsPerRow*scale, m.p.RetLogMedian, m.p.RetLogSigma
	}
	base := stats.Combine(m.seed, stream, uint64(bank), uint64(row))
	n = stats.NewRNG(base).Poisson(lambda)
	// Combine(base, i) is Mix64(Combine(base) ^ i): the first mix is the
	// same for every cell.
	return stats.Combine(base), n, logMedian, logSigma
}

// cellHash is the identity hash of a population's i-th draw,
// stats.Combine(base, i) with the loop-invariant first mix hoisted into
// h0.
func cellHash(h0 uint64, i int) uint64 { return stats.Mix64(h0 ^ uint64(i)) }

// chained reports whether draw i > 0 with identity hash h joins the
// previous draw's cluster (see samplePopulation).
func (m *Model) chained(h uint64) bool {
	return stats.UnitFromHash(stats.Mix64(h^0xC1)) < m.p.CellClusterProb
}

// samplePopulation deterministically generates the stream's vulnerable
// cells of (bank, row) from the model seed, in sampling order. The same
// (seed, stream, bank, row) always yields the same cells.
func (m *Model) samplePopulation(pop *population, bank, row int, stream uint64) {
	h0, n, logMedian, logSigma := m.draws(bank, row, stream)
	pop.state = popSampled
	pop.weakest = math.Inf(1)
	if n == 0 {
		return
	}
	cells := make([]vulnCell, 0, n)
	prevWord := -1
	prevLogThreshold := 0.0
	for i := 0; i < n; i++ {
		h := cellHash(h0, i)
		var col int
		var logThreshold float64
		// Weak cells cluster spatially (shared defects): with
		// CellClusterProb the next cell lands in the same 64-bit word as
		// the previous one AND inherits a correlated threshold, so whole
		// clusters flip together — producing the multi-bit words of
		// Fig. 25/26 that defeat SEC-DED and Chipkill.
		if i > 0 && m.chained(h) {
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

// weakestBound returns a lower bound on the minimum threshold of the
// population samplePopulation would draw, at the cost of a few hashes
// per draw: no log, exp, cos or sqrt per cell. It replays the sampler's
// control flow draw for draw — the same count, identity hashes, cluster
// decisions and chaining of the previous log-threshold — with each
// standard normal replaced by normalFloor's bound below it. The result
// bounds every draw, duplicates included, so it bounds the cells the
// sampler keeps. A negative (or NaN) log-sigma turns the bound around;
// the result is then -Inf, which bounds anything.
func (m *Model) weakestBound(bank, row int, stream uint64) float64 {
	h0, n, logMedian, logSigma := m.draws(bank, row, stream)
	if !(logSigma >= 0) {
		return math.Inf(-1)
	}
	lowest := math.Inf(1)
	prev := 0.0
	for i := 0; i < n; i++ {
		h := cellHash(h0, i)
		var lb float64
		if i > 0 && m.chained(h) {
			lb = prev + 0.25*logSigma*normalFloor(stats.Mix64(h^0xC3))
		} else {
			lb = logMedian + logSigma*normalFloor(h)
		}
		prev = lb
		lowest = min(lowest, lb)
	}
	// Every step above and in the sampler rounds at most a few ulps of
	// magnitudes below |logMedian| + logSigma·(normal range)·(1 + n), and
	// the margin is 1e-9 of that: wide enough for any population of
	// fewer than ~10^6 draws, narrow enough to turn away almost nothing.
	margin := 1e-9 * (1 + math.Abs(logMedian) + logSigma*normalFloorTable[len(normalFloorTable)-1]*float64(1+n))
	return expNat(lowest - margin)
}

// normalFloorTable[j] is √(2j·ln 2): the Box-Muller radius √(−2 ln u₁)
// at u₁ = 2^−j.
var normalFloorTable = func() (t [55]float64) {
	for j := range t {
		t[j] = math.Sqrt(2 * float64(j) * math.Ln2)
	}
	return t
}()

// normalFloor returns a lower bound on stats.NormalFromHash(h) =
// √(−2 ln u₁)·cos(2π u₂) without a transcendental function: the cosine is
// at least −1, and u₁ = UnitFromHash(h) is at least 2^−j, where j counts
// the leading zeros of the 53-bit mantissa source h>>11 beyond the 11
// its shift clears (j = 54 for the all-zero source, which UnitFromHash
// maps to 2^−54).
func normalFloor(h uint64) float64 {
	return -normalFloorTable[bits.LeadingZeros64(h>>11)-10]
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
