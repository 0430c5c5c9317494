package disturb

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/dram"
	"repro/internal/stats"
)

// refRowProfile, refSampleRow, refSamplePopulation and refCellIsTrue are
// the eager sampler the lazy populations replaced: every population of a
// row sampled on first touch, deduplicated through a map, oriented by a
// hash per cell and sorted with cmp.Compare. They are the reference the
// lazy sampler must reproduce cell for cell.
type refRowProfile struct {
	press     []vulnCell
	hammer    []vulnCell
	retention []vulnCell
}

func refSampleRow(m *Model, bank, row int) *refRowProfile {
	prof := &refRowProfile{}
	scale := float64(m.rowBits) / ReferenceRowBits
	prof.press = refSamplePopulation(m, bank, row, streamPress,
		m.p.PressCellsPerRow*scale, m.p.PressLogMedian, m.p.PressLogSigma)
	prof.hammer = refSamplePopulation(m, bank, row, streamHammer,
		m.p.HammerCellsPerRow*scale, m.p.HammerLogMedian, m.p.HammerLogSigma)
	prof.retention = refSamplePopulation(m, bank, row, streamRetention,
		m.p.RetCellsPerRow*scale, m.p.RetLogMedian, m.p.RetLogSigma)
	return prof
}

func refSamplePopulation(m *Model, bank, row int, stream uint64, lambda, logMedian, logSigma float64) []vulnCell {
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
			col:       int32(col),
			bit:       bit,
			threshold: expNat(logThreshold),
			trueCell:  refCellIsTrue(m, bank, row, col, bit),
			hash:      h,
		})
	}
	slices.SortFunc(cells, func(a, b vulnCell) int { return cmp.Compare(a.threshold, b.threshold) })
	return cells
}

func refCellIsTrue(m *Model, bank, row, col int, bit uint8) bool {
	h := stats.Combine(m.seed, streamOrientation, uint64(bank), uint64(row), uint64(col), uint64(bit))
	return stats.UnitFromHash(h) < m.p.TrueCellFraction
}

// sortedCells reads one population of (bank, row) through the
// evaluators' accessor with an unbounded limit, which samples and sorts
// it if it was not already.
func sortedCells(m *Model, bank, row int, stream uint64) []vulnCell {
	return m.cells(m.profile(bank, row), stream, math.Inf(1))
}

// eagerModel returns a model whose row profiles all come from the
// reference sampler, sorted, with the weakest-cell gate disabled: its
// evaluators run the threshold-ordered scan over eagerly sampled cells,
// exactly as before populations became lazy.
func eagerModel(p Params, geo dram.Geometry, seed uint64) *Model {
	m := NewModel(p, geo, seed)
	for bank := 0; bank < geo.Banks; bank++ {
		for row := 0; row < geo.RowsPerBank; row++ {
			ref := refSampleRow(m, bank, row)
			prof := m.profile(bank, row)
			for i, cells := range [][]vulnCell{ref.press, ref.hammer, ref.retention} {
				prof.pops[i] = population{cells: cells, weakest: math.Inf(-1), state: popSorted}
			}
		}
	}
	return m
}

var streamNames = map[uint64]string{streamPress: "press", streamHammer: "hammer", streamRetention: "retention"}

// CheckLazyMatchesEager drives one parameter set and module seed through
// both samplers on a 2-bank × 64-row module of 8 KiB rows. For every row
// it evaluates randomized exposures plus, per population, exposures just
// below, at and just above its weakest cell; ApplyFlips and WouldFlip of
// the lazy model must return what the eager reference returns and leave
// the same bytes. Afterwards every lazy population, forced sorted, must
// equal the reference cell for cell. It is exported for the die-catalog
// test in package disturb_test: chipgen imports disturb, so only an
// external test can range over its catalog.
func CheckLazyMatchesEager(t *testing.T, p Params, seed uint64) (flips, gated int) {
	t.Helper()
	geo := dram.Geometry{Banks: 2, RowsPerBank: 64, RowBytes: 8192}
	lazy := NewModel(p, geo, seed)
	eager := eagerModel(p, geo, seed)
	rng := stats.NewRNG(stats.Combine(seed, 0xD1FF))

	// Row contents come from a pool of random buffers; each evaluation
	// picks its victim and neighbor contents from it.
	pool := make([][]byte, 8)
	for i := range pool {
		pool[i] = make([]byte, geo.RowBytes)
		for j := 0; j < geo.RowBytes; j += 8 {
			binary.LittleEndian.PutUint64(pool[i][j:], rng.Uint64())
		}
	}
	lazyData := make([]byte, geo.RowBytes)
	eagerData := make([]byte, geo.RowBytes)

	for bank := 0; bank < geo.Banks; bank++ {
		for row := 0; row < geo.RowsPerBank; row++ {
			tempC := []float64{50, 65, 80}[rng.Intn(3)]
			trial := uint64(rng.Intn(3))
			for _, m := range []*Model{lazy, eager} {
				m.SetEvalTemperature(tempC)
				m.SetTrial(trial)
			}
			// The gate compares against the exposure scaled by the same
			// coupling and headroom factors the evaluators apply.
			cplC := tempInterp(p.PressCplCharged50, p.PressCplCharged80, tempC)
			cplD := tempInterp(p.PressCplDischgd50, p.PressCplDischgd80, tempC)
			pressUnit := math.Max(cplC, cplD) * lazy.headroom
			hammerUnit := math.Max(p.HammerCplCharged, p.HammerCplDischgd) * lazy.headroom
			ref := refSampleRow(eager, bank, row)
			weakest := func(cells []vulnCell, fallback float64) float64 {
				if len(cells) == 0 {
					return fallback
				}
				return cells[0].threshold
			}
			wp := weakest(ref.press, math.Exp(p.PressLogMedian))
			wh := weakest(ref.hammer, math.Exp(p.HammerLogMedian))
			wr := weakest(ref.retention, math.Exp(p.RetLogMedian))

			var exps []dram.Exposure
			for _, f := range []float64{1 - 1e-9, 1, 1 + 1e-9} {
				exps = append(exps,
					dram.Exposure{PressAbove: wp / pressUnit * f},
					dram.Exposure{PressBelow: wp / pressUnit * f},
					dram.Exposure{HammerAbove: wh / hammerUnit * f},
					dram.Exposure{HammerBelow: wh / hammerUnit * f},
					dram.Exposure{Retention: wr / lazy.headroom * f})
			}
			// Randomized: each mechanism off or log-uniform within a
			// decade either side of the row's weakest cell.
			around := func(w float64) float64 {
				if rng.Intn(3) == 0 {
					return 0
				}
				return w * math.Pow(10, 2*rng.Float64()-1)
			}
			for i := 0; i < 6; i++ {
				exps = append(exps, dram.Exposure{
					PressAbove:  around(wp / pressUnit),
					PressBelow:  around(wp / pressUnit),
					HammerAbove: around(wh / hammerUnit),
					HammerBelow: around(wh / hammerUnit),
					Retention:   around(wr / lazy.headroom),
				})
			}
			// Visit the exposures in a row-dependent order so populations
			// get sampled in varying orders across rows.
			for i := len(exps) - 1; i > 0; i-- {
				j := rng.Intn(i + 1)
				exps[i], exps[j] = exps[j], exps[i]
			}

			for _, exp := range exps {
				data := pool[rng.Intn(len(pool))]
				var nb dram.NeighborData
				if rng.Intn(2) == 0 {
					nb.Above = pool[rng.Intn(len(pool))]
				}
				if rng.Intn(2) == 0 {
					nb.Below = pool[rng.Intn(len(pool))]
				}
				lazyWould := lazy.WouldFlip(bank, row, data, nb, exp)
				eagerWould := eager.WouldFlip(bank, row, data, nb, exp)
				copy(lazyData, data)
				copy(eagerData, data)
				lazyN := lazy.ApplyFlips(bank, row, lazyData, nb, exp)
				eagerN := eager.ApplyFlips(bank, row, eagerData, nb, exp)
				if lazyWould != eagerWould || lazyN != eagerN || !bytes.Equal(lazyData, eagerData) {
					t.Fatalf("seed %d bank %d row %d exp %+v: lazy WouldFlip=%v ApplyFlips=%d, eager WouldFlip=%v ApplyFlips=%d (bytes equal: %v)",
						seed, bank, row, exp, lazyWould, lazyN, eagerWould, eagerN, bytes.Equal(lazyData, eagerData))
				}
				flips += lazyN
				// A population the exposure reached that is still
				// unsorted was answered by the weakest-cell gate, on
				// its bound or on its exact weakest cell.
				reached := [...]bool{
					exp.PressAbove+exp.PressBelow > 0,
					exp.HammerAbove+exp.HammerBelow > 0,
					exp.Retention > 0,
				}
				for i, pop := range lazy.profile(bank, row).pops {
					if reached[i] && pop.state != popSorted {
						gated++
					}
				}
			}
		}
	}

	for bank := 0; bank < geo.Banks; bank++ {
		for row := 0; row < geo.RowsPerBank; row++ {
			ref := refSampleRow(eager, bank, row)
			for i, want := range [][]vulnCell{ref.press, ref.hammer, ref.retention} {
				stream := streamPress + uint64(i)
				// The gate passes exactly the limits a threshold-ordered
				// scan would enter: those at or above the weakest cell.
				if len(want) > 0 {
					w, prof := want[0].threshold, lazy.profile(bank, row)
					if lazy.cells(prof, stream, math.Nextafter(w, 0)) != nil || lazy.cells(prof, stream, w) == nil {
						t.Fatalf("seed %d bank %d row %d: %s gate misplaced around the weakest threshold %g",
							seed, bank, row, streamNames[stream], w)
					}
				}
				if got := sortedCells(lazy, bank, row, stream); !slices.Equal(got, want) {
					t.Fatalf("seed %d bank %d row %d: lazy %s population (%d cells) differs from the eager reference (%d cells)",
						seed, bank, row, streamNames[stream], len(got), len(want))
				}
			}
		}
	}
	return flips, gated
}

// TestLazyMatchesEagerDefaultParams runs the differential check on the
// default parameters with the true-cell fraction at both hash-free
// endpoints and in between.
func TestLazyMatchesEagerDefaultParams(t *testing.T) {
	for _, frac := range []float64{0, 0.5, 1} {
		p := DefaultParams()
		p.TrueCellFraction = frac
		flips, gated := CheckLazyMatchesEager(t, p, 3)
		if flips == 0 || gated == 0 {
			t.Fatalf("true-cell fraction %v: %d flips, %d gated populations; the check is vacuous", frac, flips, gated)
		}
	}
}

// TestSamplingBitsetClearedBetweenPopulations pins the dedup bitset's
// invariant: sampling leaves every bit clear, so the next population
// starts from an empty set.
func TestSamplingBitsetClearedBetweenPopulations(t *testing.T) {
	m := testModel()
	for row := 0; row < 32; row++ {
		for _, stream := range []uint64{streamRetention, streamPress, streamHammer} {
			if len(sortedCells(m, 1, row, stream)) == 0 {
				continue
			}
			for i, w := range m.seen {
				if w != 0 {
					t.Fatalf("row %d %s: bitset word %d = %#x after sampling", row, streamNames[stream], i, w)
				}
			}
		}
	}
}

// BenchmarkApplyFlipsColdRows measures flip evaluation on rows a fresh
// model has never seen, the characterization probe's common case: most
// restores carry a hammer and retention exposure below the row's weakest
// cell, and every eighth row a flipping press and hammer exposure.
func BenchmarkApplyFlipsColdRows(b *testing.B) {
	geo := dram.Geometry{Banks: 1, RowsPerBank: 512, RowBytes: 8192}
	p := DefaultParams()
	data := make([]byte, geo.RowBytes)
	sub := dram.Exposure{HammerAbove: 2e4, HammerBelow: 2e4, Retention: 0.064}
	flip := dram.Exposure{HammerAbove: 4e5, HammerBelow: 4e5, PressAbove: 0.05, Retention: 0.064}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := NewModel(p, geo, uint64(i))
		for row := 0; row < geo.RowsPerBank; row++ {
			exp := sub
			if row%8 == 0 {
				exp = flip
			}
			dram.Fill(data, 0x55)
			m.ApplyFlips(0, row, data, dram.NeighborData{}, exp)
		}
	}
}
