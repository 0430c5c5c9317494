package disturb

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/dram"
	"repro/internal/stats"
)

// checkLoggedCall runs ApplyFlipsLog on one copy of data and ApplyFlips on
// another, on two models built alike, and fails unless every byte the
// logged call changed is in its log, the log holds one offset per flip,
// and both calls leave the same bytes and flip count. It returns the log.
func checkLoggedCall(t *testing.T, logged, plain *Model, bank, row int, data []byte, nb dram.NeighborData, exp dram.Exposure) []int32 {
	t.Helper()
	got := append([]byte(nil), data...)
	n, log := logged.ApplyFlipsLog(bank, row, got, nb, exp, nil)
	if len(log) != n {
		t.Fatalf("bank %d row %d exp %+v: %d flips but %d logged offsets", bank, row, exp, n, len(log))
	}
	inLog := make(map[int32]bool, len(log))
	for _, c := range log {
		inLog[c] = true
	}
	for i := range data {
		if got[i] != data[i] && !inLog[int32(i)] {
			t.Fatalf("bank %d row %d exp %+v: byte %d changed %#02x → %#02x but is not in the log %v",
				bank, row, exp, i, data[i], got[i], log)
		}
	}
	want := append([]byte(nil), data...)
	if m := plain.ApplyFlips(bank, row, want, nb, exp); m != n {
		t.Fatalf("bank %d row %d exp %+v: ApplyFlips flipped %d, ApplyFlipsLog %d", bank, row, exp, m, n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bank %d row %d exp %+v: byte %d is %#02x logged, %#02x unlogged", bank, row, exp, i, got[i], want[i])
		}
	}
	return log
}

// CheckFlipLogCoversChangedBytes holds the flip log to the bytes a flip
// evaluation changes, on 2 banks × 32 rows of a model of p at seed: per
// row, randomized press, hammer and retention exposures around the row's
// weakest cells over random fill and neighbour bytes, plus, where one
// cell is in both the press and the hammer population, an exposure that
// flips it by press and back by hammer in one call. It also checks that
// unlogged ApplyFlips on an already-sampled row that flips allocates
// nothing. It returns the number of flips and of flip-backs seen. It is
// exported for the die-catalog test in package disturb_test.
func CheckFlipLogCoversChangedBytes(t *testing.T, p Params, seed uint64) (flips, flipBacks int) {
	t.Helper()
	geo := dram.Geometry{Banks: 2, RowsPerBank: 32, RowBytes: 8192}
	logged := NewModel(p, geo, seed)
	plain := NewModel(p, geo, seed)
	rng := stats.NewRNG(stats.Combine(seed, 0xF11B))
	data := make([]byte, geo.RowBytes)
	above := make([]byte, geo.RowBytes)
	below := make([]byte, geo.RowBytes)
	randomize := func(b []byte) {
		for j := 0; j < len(b); j += 8 {
			binary.LittleEndian.PutUint64(b[j:], rng.Uint64())
		}
	}
	allocsChecked := false

	for bank := 0; bank < geo.Banks; bank++ {
		for row := 0; row < geo.RowsPerBank; row++ {
			tempC := []float64{50, 65, 80}[rng.Intn(3)]
			trial := uint64(rng.Intn(3))
			for _, m := range []*Model{logged, plain} {
				m.SetEvalTemperature(tempC)
				m.SetTrial(trial)
			}
			press := sortedCells(logged, bank, row, streamPress)
			hammer := sortedCells(logged, bank, row, streamHammer)
			ret := sortedCells(logged, bank, row, streamRetention)
			weakest := func(cells []vulnCell, logMedian float64) float64 {
				if len(cells) == 0 {
					return math.Exp(logMedian)
				}
				return cells[0].threshold
			}
			// Each mechanism off or log-uniform within a decade either
			// side of the row's weakest cell, in exposure units.
			around := func(w float64) float64 {
				if rng.Intn(3) == 0 {
					return 0
				}
				return w * math.Pow(10, 2*rng.Float64()-1)
			}
			cplC := tempInterp(p.PressCplCharged50, p.PressCplCharged80, tempC)
			cplD := tempInterp(p.PressCplDischgd50, p.PressCplDischgd80, tempC)
			wp := weakest(press, p.PressLogMedian) / math.Max(cplC, cplD)
			wh := weakest(hammer, p.HammerLogMedian) / math.Max(p.HammerCplCharged, p.HammerCplDischgd)
			wr := weakest(ret, p.RetLogMedian)

			for k := 0; k < 4; k++ {
				dram.Fill(data, byte(rng.Uint64()))
				randomize(above)
				randomize(below)
				nb := dram.NeighborData{Above: above, Below: below}
				if k == 3 {
					nb.Below = nil // an unknown neighbour couples neutrally
				}
				exp := dram.Exposure{
					PressAbove: around(wp), PressBelow: around(wp),
					HammerAbove: around(wh), HammerBelow: around(wh),
					Retention: around(wr),
				}
				flips += len(checkLoggedCall(t, logged, plain, bank, row, data, nb, exp))
			}

			// A cell in both populations: charge it, press it past its
			// threshold (discharge), hammer it past its hammer threshold
			// (charge again). Its byte ends where it began, and the log
			// names it twice.
			c, h, ok := sharedCell(press, hammer)
			if !ok {
				continue
			}
			for _, m := range []*Model{logged, plain} {
				m.SetTrial(0)
			}
			dram.Fill(data, byte(rng.Uint64()))
			setBit(data, c.col, c.bit, c.trueCell) // charged
			randomize(above)
			nb := dram.NeighborData{Above: above}
			exp := dram.Exposure{
				PressAbove:  1.01 * c.threshold / logged.sideCoupling(above, &c, cplC, cplD),
				HammerAbove: 1.01 * h.threshold / logged.sideCoupling(above, &h, p.HammerCplCharged, p.HammerCplDischgd),
			}
			log := checkLoggedCall(t, logged, plain, bank, row, data, nb, exp)
			flips += len(log)
			seen := 0
			for _, col := range log {
				if col == c.col {
					seen++
				}
			}
			if seen < 2 {
				t.Fatalf("bank %d row %d: cell %d.%d in both populations logged %d times under %+v, want a flip and a flip back",
					bank, row, c.col, c.bit, seen, exp)
			}
			flipBacks++

			if !allocsChecked {
				// The populations this exposure reaches are sampled and
				// sorted now; replaying it must not allocate.
				buf := make([]byte, len(data))
				allocs := testing.AllocsPerRun(20, func() {
					copy(buf, data)
					if plain.ApplyFlips(bank, row, buf, nb, exp) == 0 {
						t.Fatal("the replayed exposure flips nothing")
					}
				})
				if allocs != 0 {
					t.Fatalf("unlogged ApplyFlips on a sampled row: %v allocations per call, want 0", allocs)
				}
				allocsChecked = true
			}
		}
	}
	return flips, flipBacks
}

// sharedCell returns a cell that is in both the press and the hammer
// population, as each population records it.
func sharedCell(press, hammer []vulnCell) (p, h vulnCell, ok bool) {
	for _, pc := range press {
		for _, hc := range hammer {
			if pc.col == hc.col && pc.bit == hc.bit {
				return pc, hc, true
			}
		}
	}
	return vulnCell{}, vulnCell{}, false
}

// FuzzApplyFlipsLog fuzzes the exposure, fill byte and neighbour bytes of
// one logged flip evaluation and holds it to the same properties as
// CheckFlipLogCoversChangedBytes: every changed byte is logged, one
// offset per flip, and unlogged ApplyFlips leaves the same bytes.
func FuzzApplyFlipsLog(f *testing.F) {
	f.Add(uint16(3), byte(0x00), byte(0xFF), byte(0xFF), 0.0, 0.0, 4e4, 0.0, 0.0)
	f.Add(uint16(9), byte(0xFF), byte(0x00), byte(0x00), 0.05, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint16(17), byte(0x55), byte(0xAA), byte(0x0F), 0.2, 0.2, 3e5, 3e5, 0.0)
	f.Add(uint16(40), byte(0xAA), byte(0x55), byte(0xF0), 0.0, 0.0, 0.0, 0.0, 200.0)
	f.Add(uint16(63), byte(0xFF), byte(0xFF), byte(0x00), 1.0, 0.0, 1e6, 0.0, 90.0)
	geo := dram.Geometry{Banks: 1, RowsPerBank: 64, RowBytes: 512}
	logged := NewModel(DefaultParams(), geo, 7)
	plain := NewModel(DefaultParams(), geo, 7)
	f.Fuzz(func(t *testing.T, row uint16, fill, above, below byte, pa, pb, ha, hb, ret float64) {
		for _, v := range []float64{pa, pb, ha, hb, ret} {
			if !(v >= 0 && v < 1e300) {
				return // exposures are finite and non-negative
			}
		}
		data := dram.Fill(make([]byte, geo.RowBytes), fill)
		nb := dram.NeighborData{
			Above: dram.Fill(make([]byte, geo.RowBytes), above),
			Below: dram.Fill(make([]byte, geo.RowBytes), below),
		}
		exp := dram.Exposure{PressAbove: pa, PressBelow: pb, HammerAbove: ha, HammerBelow: hb, Retention: ret}
		checkLoggedCall(t, logged, plain, 0, int(row)%geo.RowsPerBank, data, nb, exp)
	})
}
