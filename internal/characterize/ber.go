package characterize

import (
	"slices"

	"repro/internal/chipgen"
	"repro/internal/dram"
)

// BERResult is one bit-error-rate measurement: the maximum fraction of
// flipped cells across victim rows and trials, as §5.4 reports.
type BERResult struct {
	TAggON   dram.TimePS
	TAggOFF  dram.TimePS
	Count    int // activations issued
	MaxBER   float64
	MeanBER  float64
	StdBER   float64
	AllFlips int
}

// measureBERProbed measures BER on the replay-free prober: every trial
// is a closed-form probe instead of an executed prepare/hammer/check
// stream, so a measurement costs O(site) regardless of the activation
// count. Threading one prober through a sequence of measurements
// reproduces the command path's bench-state threading bit for bit
// (TestMeasureBERProbedMatchesCommandPath).
func measureBERProbed(p *prober, s site, onTime, extraOff dram.TimePS) (BERResult, error) {
	slot := onTime + p.b.Mod.Timing.TRP + extraOff
	count := maxActivations(p.cfg.TimeBudget, slot, len(s.aggressors))
	bitsPerRow := float64(p.b.Mod.Geo.BitsPerRow())

	res := BERResult{
		TAggON:  onTime,
		TAggOFF: p.b.Mod.Timing.TRP + extraOff,
		Count:   count,
	}
	var bers []float64
	// A trial flips at most the site's victims, and a check lists each
	// victim's flips together: the per-row counts fit a small array, and
	// the scan for a flip's row usually stops at the last entry.
	var perRow [2*dram.BlastRadius + 1]rowFlips
	for trial := 1; trial <= p.cfg.Trials; trial++ {
		p.b.SetTrial(uint64(trial))
		flips, err := p.probe(s, count, onTime, extraOff)
		if err != nil {
			return BERResult{}, err
		}
		res.AllFlips += len(flips)
		rows := perRow[:0]
		for _, f := range flips {
			i := len(rows) - 1
			for i >= 0 && rows[i].row != f.LogicalRow {
				i--
			}
			if i < 0 {
				rows = append(rows, rowFlips{row: f.LogicalRow})
				i = len(rows) - 1
			}
			rows[i].n++
		}
		// Row-order accumulation: MeanBER is a float sum over bers and
		// float addition is not associative.
		slices.SortFunc(rows, func(a, b rowFlips) int { return a.row - b.row })
		for _, r := range rows {
			bers = append(bers, float64(r.n)/bitsPerRow)
		}
		if len(rows) == 0 {
			bers = append(bers, 0)
		}
	}
	p.b.SetTrial(0)
	for _, v := range bers {
		if v > res.MaxBER {
			res.MaxBER = v
		}
		res.MeanBER += v
	}
	res.MeanBER /= float64(len(bers))
	return res, nil
}

// rowFlips is one victim row's flip count in a BER trial.
type rowFlips struct{ row, n int }

// BERGrid measures BER at every (tAggON, location) cell — tAggON outer,
// location inner, one prober threaded through the whole grid, matching
// the command path's bench threading. It is the replay-free measurement
// behind Table 6.
func BERGrid(spec chipgen.ModuleSpec, cfg Config, tempC float64, tAggONs []dram.TimePS, locs []int) ([][]BERResult, error) {
	b, err := NewBench(spec, cfg, tempC)
	if err != nil {
		return nil, err
	}
	p := newProber(b, cfg)
	out := make([][]BERResult, len(tAggONs))
	for ti, on := range tAggONs {
		row := make([]BERResult, 0, len(locs))
		for _, loc := range locs {
			r, err := measureBERProbed(p, siteFor(loc, cfg.Sided), on, 0)
			if err != nil {
				return nil, err
			}
			row = append(row, r)
		}
		out[ti] = row
	}
	return out, nil
}

// ONOFFPoint is one cell of the Fig. 22 grid: a ΔtA2A value and the
// fraction of it contributing to tAggON.
type ONOFFPoint struct {
	DeltaA2A dram.TimePS
	OnFrac   float64 // 0, 0.25, 0.5, 0.75, 1.0
	BER      BERResult
}

// DeltaA2As is the §5.4 lattice of extra activation-to-activation times.
var DeltaA2As = []dram.TimePS{
	240 * dram.Nanosecond,
	600 * dram.Nanosecond,
	1200 * dram.Nanosecond,
	2400 * dram.Nanosecond,
	6000 * dram.Nanosecond,
}

// OnFracs is the §5.4 split lattice.
var OnFracs = []float64{0, 0.25, 0.5, 0.75, 1.0}

// ONOFFSweep runs the RowPress-ONOFF experiment (Fig. 21/22, Appendix C):
// fix tA2A = tRC + ΔtA2A, sweep the fraction of ΔtA2A that extends the
// row-open time (the rest extends the off time), and measure BER with the
// maximum activation count that fits the budget. Measurements run
// replay-free on one threaded prober; the differential tests pin this
// against a per-command reference that replays every measurement's full
// command stream.
func ONOFFSweep(spec chipgen.ModuleSpec, cfg Config, tempC float64) ([]ONOFFPoint, error) {
	b, err := NewBench(spec, cfg, tempC)
	if err != nil {
		return nil, err
	}
	p := newProber(b, cfg)
	return onoffSweep(cfg, b.Mod.Timing.TRAS, func(s site, onTime, extraOff dram.TimePS) (BERResult, error) {
		return measureBERProbed(p, s, onTime, extraOff)
	})
}

// onoffSweep is the shared ONOFF grid walk over a BER measurement
// function; the prober and the tests' replay reference differ only in
// measure.
func onoffSweep(cfg Config, tRAS dram.TimePS, measure func(s site, onTime, extraOff dram.TimePS) (BERResult, error)) ([]ONOFFPoint, error) {
	locs := testedLocations(cfg.Geometry, min(cfg.RowsToTest, 8))
	var out []ONOFFPoint
	for _, delta := range DeltaA2As {
		for _, frac := range OnFracs {
			onTime := tRAS + dram.TimePS(frac*float64(delta))
			extraOff := delta - (onTime - tRAS)
			// Aggregate the worst BER across the sampled locations.
			var agg BERResult
			for _, loc := range locs {
				r, err := measure(siteFor(loc, cfg.Sided), onTime, extraOff)
				if err != nil {
					return nil, err
				}
				if r.MaxBER > agg.MaxBER {
					agg.MaxBER = r.MaxBER
				}
				agg.MeanBER += r.MeanBER
				agg.AllFlips += r.AllFlips
				agg.TAggON, agg.TAggOFF, agg.Count = r.TAggON, r.TAggOFF, r.Count
			}
			agg.MeanBER /= float64(len(locs))
			out = append(out, ONOFFPoint{DeltaA2A: delta, OnFrac: frac, BER: agg})
		}
	}
	return out, nil
}
