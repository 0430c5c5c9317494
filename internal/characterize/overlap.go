package characterize

import (
	"repro/internal/bender"
	"repro/internal/chipgen"
	"repro/internal/dram"
)

// CellKey identifies one DRAM cell within the bank under test.
type CellKey struct {
	Row  int // physical row
	Byte int
	Bit  uint8
}

// cellOf returns the cell a flip landed in.
func cellOf(f bender.Flip) CellKey {
	return CellKey{Row: f.LogicalRow, Byte: f.Byte, Bit: f.Bit}
}

// AddCells adds the cells of flips to set.
func AddCells(set map[CellKey]bool, flips []bender.Flip) {
	for _, f := range flips {
		set[cellOf(f)] = true
	}
}

// OverlapRatio returns |a ∩ b| / |a| (zero when a is empty).
func OverlapRatio(a, b map[CellKey]bool) float64 {
	if len(a) == 0 {
		return 0
	}
	n := 0
	for k := range a {
		if b[k] {
			n++
		}
	}
	return float64(n) / float64(len(a))
}

// OverlapPoint reports, at one tAggON, the fraction of RowPress-vulnerable
// cells that also appear in the RowHammer set (tAggON = tRAS) and in the
// retention-failure set (Fig. 10/11).
type OverlapPoint struct {
	TAggON        dram.TimePS
	Cells         int
	WithHammer    float64
	WithRetention float64
}

// RetentionTest reproduces the §4.3 retention experiment on a fresh
// bench: initialize the tested rows with the data pattern, disable
// refresh for holdSeconds at 80 °C, and collect the cells that flipped.
func RetentionTest(b *bender.Bench, locs []int, cfg Config, holdSeconds float64) (map[CellKey]bool, error) {
	if err := b.SetTemperature(80); err != nil {
		return nil, err
	}
	return newProber(b, cfg).retention(locs, holdSeconds), nil
}

// retention is RetentionTest on the prober: prepare every location's
// site, hold, then check every site.
func (p *prober) retention(locs []int, holdSeconds float64) map[CellKey]bool {
	sites := make([]site, len(locs))
	for i, loc := range locs {
		sites[i] = siteFor(loc, p.cfg.Sided)
		p.prepare(sites[i])
	}
	p.b.Advance(dram.FromSeconds(holdSeconds))
	set := make(map[CellKey]bool)
	for _, s := range sites {
		AddCells(set, p.check(s))
	}
	return set
}

// OverlapSweep runs the Fig. 10 experiment for one module: for each
// tAggON, collect the cells that flip at ACmin, and compare against the
// RowHammer-vulnerable set (the tAggON = tRAS column of the same sweep)
// and the retention-failure set.
func OverlapSweep(spec chipgen.ModuleSpec, cfg Config, tempC float64, tAggONs []dram.TimePS) ([]OverlapPoint, error) {
	sweep, err := ACminSweep(spec, cfg, tempC, tAggONs)
	if err != nil {
		return nil, err
	}
	// Retention set on a fresh bench of the same module.
	bret, err := NewBench(spec, cfg, tempC)
	if err != nil {
		return nil, err
	}
	retSet, err := RetentionTest(bret, testedLocations(cfg.Geometry, cfg.RowsToTest), cfg, 4)
	if err != nil {
		return nil, err
	}

	// RowHammer set: flips observed at the smallest tAggON (= tRAS).
	hammerSet := make(map[CellKey]bool)
	if len(sweep) > 0 {
		for _, r := range sweep[0].Results {
			AddCells(hammerSet, r.Flips)
		}
	}
	out := make([]OverlapPoint, 0, len(sweep))
	for _, pt := range sweep {
		set := make(map[CellKey]bool)
		for _, r := range pt.Results {
			AddCells(set, r.Flips)
		}
		out = append(out, OverlapPoint{
			TAggON:        pt.TAggON,
			Cells:         len(set),
			WithHammer:    OverlapRatio(set, hammerSet),
			WithRetention: OverlapRatio(set, retSet),
		})
	}
	return out, nil
}

// MaxACFlips collects, on a fresh bench, the cells that flip when the
// aggressors are activated as many times as the budget allows (the
// @ACmax variant of Fig. 11 and the ECC analysis of §7.1). It returns the
// flip list so callers can analyze per-word error multiplicities.
func MaxACFlips(b *bender.Bench, locs []int, onTime dram.TimePS, cfg Config) ([]bender.Flip, error) {
	p := newProber(b, cfg)
	slot := onTime + b.Mod.Timing.TRP
	var all []bender.Flip
	for _, loc := range locs {
		s := siteFor(loc, cfg.Sided)
		flips, err := p.probe(s, maxActivations(cfg.TimeBudget, slot, len(s.aggressors)), onTime, 0)
		if err != nil {
			return nil, err
		}
		all = append(all, flips...)
	}
	return all, nil
}
