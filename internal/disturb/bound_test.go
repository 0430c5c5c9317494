package disturb

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/stats"
)

// boundRows is how many rows of one bank CheckWeakestBound visits.
const boundRows = 256

// CheckWeakestBound holds weakestBound below the population the sampler
// draws, for every stream of boundRows rows of a model of p at seed: the
// bound must not exceed the sampled weakest threshold, nor the weakest
// cell of the eager reference sampler. It returns the populations
// checked and, for the nonempty ones, the gaps ln(weakest) − ln(bound)
// in units of the stream's log-sigma, so callers can tell a tight bound
// from a vacuous one. It is exported for the die-catalog test in package
// disturb_test.
func CheckWeakestBound(t *testing.T, p Params, seed uint64) (checked int, gaps []float64) {
	t.Helper()
	geo := dram.Geometry{Banks: 1, RowsPerBank: boundRows, RowBytes: 8192}
	m := NewModel(p, geo, seed)
	sigmas := map[uint64]float64{streamPress: p.PressLogSigma, streamHammer: p.HammerLogSigma, streamRetention: p.RetLogSigma}
	for row := 0; row < geo.RowsPerBank; row++ {
		ref := refSampleRow(m, 0, row)
		for i, want := range [][]vulnCell{ref.press, ref.hammer, ref.retention} {
			stream := streamPress + uint64(i)
			bound := m.weakestBound(0, row, stream)
			var pop population
			m.samplePopulation(&pop, 0, row, stream)
			refWeakest := math.Inf(1)
			if len(want) > 0 {
				refWeakest = want[0].threshold
			}
			if !(bound <= pop.weakest) || !(bound <= refWeakest) {
				t.Fatalf("seed %d row %d: %s bound %g above the sampled weakest %g (reference %g, %d cells)",
					seed, row, streamNames[stream], bound, pop.weakest, refWeakest, len(pop.cells))
			}
			checked++
			if len(pop.cells) > 0 {
				gaps = append(gaps, (math.Log(pop.weakest)-math.Log(bound))/sigmas[stream])
			}
		}
	}
	return checked, gaps
}

// RequireTightBound fails unless the bound is informative: the median
// population's bound sits within 2.5 log-sigmas of its weakest cell (the
// calibrated dies' median is ~1.9; a bound that assumed the smallest
// possible u₁ for every draw would sit ~6.6 below), and no bound of a
// nonempty population is zero.
func RequireTightBound(t *testing.T, gaps []float64) {
	t.Helper()
	if len(gaps) == 0 {
		t.Fatal("no nonempty population; the check is vacuous")
	}
	gaps = slices.Clone(gaps)
	slices.Sort(gaps)
	if med := gaps[len(gaps)/2]; !(med < 2.5) {
		t.Fatalf("median gap between bound and weakest cell is %.3g log-sigmas; the bound turns nothing away", med)
	}
	if worst := gaps[len(gaps)-1]; math.IsInf(worst, 1) || math.IsNaN(worst) {
		t.Fatalf("a nonempty population has a bound of zero (gap %g)", worst)
	}
}

// TestWeakestBoundDefaultParams runs the bound check on the default
// parameters, including a layout without clusters and one where almost
// every cell chains onto the previous one. Each chained draw widens the
// bound by up to a quarter of the normal's range, so only the calibrated
// clustering is held to RequireTightBound.
func TestWeakestBoundDefaultParams(t *testing.T) {
	for _, cluster := range []float64{0, DefaultParams().CellClusterProb, 0.95} {
		p := DefaultParams()
		p.CellClusterProb = cluster
		_, gaps := CheckWeakestBound(t, p, 3)
		if cluster <= DefaultParams().CellClusterProb {
			RequireTightBound(t, gaps)
		}
	}
}

// TestNormalFloor holds normalFloor below NormalFromHash at the edges of
// every binade of u₁ — where the bound is tight — with the cosine at its
// minimum, and pins the all-zero mantissa source UnitFromHash maps to
// 2^−54.
func TestNormalFloor(t *testing.T) {
	// Mix64(h) decides u₂; search the low bits for a hash whose u₂ puts
	// the cosine within 1e-6 of −1, keeping u₁'s leading bits.
	worstCos := func(hi uint64) (uint64, bool) {
		for lo := uint64(0); lo < 1<<11; lo++ {
			h := hi | lo
			if c := math.Cos(2 * math.Pi * stats.UnitFromHash(stats.Mix64(h))); c < -1+1e-6 {
				return h, true
			}
		}
		return 0, false
	}
	for j := 1; j <= 53; j++ {
		// m = h>>11 = 2^(53-j): u₁ = 2^−j exactly, the tight end.
		h, ok := worstCos(uint64(1) << (53 - j) << 11)
		if !ok {
			continue
		}
		if z, lb := stats.NormalFromHash(h), normalFloor(h); !(lb <= z) || z-lb > 1e-5 {
			t.Fatalf("j=%d: normalFloor %v, NormalFromHash %v", j, lb, z)
		}
	}
	if lb := normalFloor(0x7FF); lb != -math.Sqrt(2*54*math.Ln2) {
		t.Fatalf("all-zero mantissa source: normalFloor %v, want −√(108 ln 2)", lb)
	}
}

// FuzzWeakestBound holds the bound below the sampled population for
// random valid parameters of one stream, bank, row, seed and row size.
func FuzzWeakestBound(f *testing.F) {
	f.Add(uint8(0), uint64(1), uint16(0), uint16(0), 40.0, math.Log(0.146), 0.57, 0.55, uint16(8192))
	f.Add(uint8(1), uint64(7), uint16(1), uint16(300), 48.0, math.Log(1e6), 0.7, 0.0, uint16(1024))
	f.Add(uint8(2), uint64(42), uint16(3), uint16(9), 30.0, math.Log(64), 0.8, 0.9, uint16(64))
	f.Add(uint8(0), uint64(5), uint16(0), uint16(2), 500.0, -3.0, 2.5, 0.5, uint16(8192))
	f.Add(uint8(1), uint64(5), uint16(0), uint16(2), 10.0, 1.0, -0.5, 0.3, uint16(512))
	f.Fuzz(func(t *testing.T, which uint8, seed uint64, bank, row uint16,
		cellsPerRow, logMedian, logSigma, cluster float64, rowBytes uint16) {
		if rowBytes == 0 || math.IsNaN(logMedian) || math.IsInf(logMedian, 0) ||
			math.IsNaN(logSigma) || math.IsInf(logSigma, 0) || math.IsNaN(cellsPerRow) ||
			cellsPerRow > 4096 || math.IsNaN(cluster) {
			t.Skip()
		}
		p := DefaultParams()
		p.CellClusterProb = cluster
		stream := streamPress + uint64(which%3)
		switch stream {
		case streamPress:
			p.PressCellsPerRow, p.PressLogMedian, p.PressLogSigma = cellsPerRow, logMedian, logSigma
		case streamHammer:
			p.HammerCellsPerRow, p.HammerLogMedian, p.HammerLogSigma = cellsPerRow, logMedian, logSigma
		default:
			p.RetCellsPerRow, p.RetLogMedian, p.RetLogSigma = cellsPerRow, logMedian, logSigma
		}
		if p.Validate() != nil {
			t.Skip()
		}
		m := NewModel(p, dram.Geometry{Banks: 1 << 16, RowsPerBank: 1 << 16, RowBytes: int(rowBytes)}, seed)
		bound := m.weakestBound(int(bank), int(row), stream)
		var pop population
		m.samplePopulation(&pop, int(bank), int(row), stream)
		if !(bound <= pop.weakest) {
			t.Fatalf("%s bound %g above the sampled weakest %g (%d cells)", streamNames[stream], bound, pop.weakest, len(pop.cells))
		}
	})
}

// CheckMillisecondRetentionUnsampled drives boundRows cold rows of a
// model of p at seed through the probe path's restores: a hammer
// exposure below most rows' weakest cell, every eighth row a flipping
// press and hammer exposure, each with a few milliseconds of retention
// stress, through WouldFlip and ApplyFlips. Retention populations hold
// seconds to minutes, so none may be sampled — each must stop at its
// bound. It returns the populations per stream in each state.
func CheckMillisecondRetentionUnsampled(t *testing.T, p Params, seed uint64) (states [streamRetention][popSorted + 1]int) {
	t.Helper()
	geo := dram.Geometry{Banks: 1, RowsPerBank: boundRows, RowBytes: 8192}
	m := NewModel(p, geo, seed)
	m.SetTrial(1)
	data := make([]byte, geo.RowBytes)
	sub := dram.Exposure{HammerAbove: 2e4, HammerBelow: 2e4, Retention: 0.004}
	flip := dram.Exposure{HammerAbove: 4e5, HammerBelow: 4e5, PressAbove: 0.05, Retention: 0.004}
	for row := 0; row < geo.RowsPerBank; row++ {
		exp := sub
		if row%8 == 0 {
			exp = flip
		}
		dram.Fill(data, 0x55)
		m.WouldFlip(0, row, data, dram.NeighborData{}, exp)
		m.ApplyFlips(0, row, data, dram.NeighborData{}, exp)
	}
	for _, prof := range m.cache {
		for i, pop := range prof.pops {
			states[i][pop.state]++
		}
	}
	ret := states[streamRetention-streamPress]
	if ret[popBounded] != geo.RowsPerBank || ret[popSampled]+ret[popSorted] != 0 {
		t.Fatalf("seed %d: retention populations by state (unbounded, bounded, sampled, sorted) %v; want all %d bounded",
			seed, ret, geo.RowsPerBank)
	}
	return states
}

// TestMillisecondRetentionUnsampled counts population states after the
// probe-path restores on the default parameters: no retention population
// is sampled, and the press populations of rows no press exposure reached
// are not even bounded.
func TestMillisecondRetentionUnsampled(t *testing.T) {
	states := CheckMillisecondRetentionUnsampled(t, DefaultParams(), 3)
	if press := states[streamPress-streamPress]; press[popUnbounded] != boundRows-boundRows/8 {
		t.Fatalf("press populations by state %v: want the %d rows without press exposure unbounded", press, boundRows-boundRows/8)
	}
}
