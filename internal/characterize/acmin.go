package characterize

import (
	"fmt"
	"slices"

	"repro/internal/bender"
	"repro/internal/chipgen"
	"repro/internal/dram"
)

// RowResult is the outcome of an ACmin search at one tested location.
type RowResult struct {
	Loc   int  // tested physical location
	ACmin int  // minimum total aggressor activations causing ≥1 bitflip
	Found bool // false: no bitflip within the time budget
	Flips []bender.Flip
}

// SweepPoint aggregates the per-row results at one tAggON value.
type SweepPoint struct {
	TAggON  dram.TimePS
	Results []RowResult
}

// ACminValues returns the ACmin of every row that flipped.
func (p SweepPoint) ACminValues() []float64 {
	var vs []float64
	for _, r := range p.Results {
		if r.Found {
			vs = append(vs, float64(r.ACmin))
		}
	}
	return vs
}

// FractionWithFlips returns the fraction of tested rows with ≥1 bitflip
// (the y-axis of Figs. 8/14).
func (p SweepPoint) FractionWithFlips() float64 {
	if len(p.Results) == 0 {
		return 0
	}
	n := 0
	for _, r := range p.Results {
		if r.Found {
			n++
		}
	}
	return float64(n) / float64(len(p.Results))
}

// FractionOneToZero returns the fraction of 1→0 bitflips among all flips
// at this point (the y-axis of Fig. 12).
func (p SweepPoint) FractionOneToZero() float64 {
	ones, total := 0, 0
	for _, r := range p.Results {
		for _, f := range r.Flips {
			total++
			if f.From {
				ones++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(ones) / float64(total)
}

// maxActivations is the largest total activation count that fits the time
// budget at the given slot time, never below one slot per aggressor so the
// pattern is at least executable.
func maxActivations(budget dram.TimePS, slot dram.TimePS, aggressors int) int {
	n := int(budget / slot)
	if n < aggressors {
		n = aggressors
	}
	return n
}

// searchACmin runs the doubling-free probe(hi) + bisection of §4.1 on the
// replay-free prober: every probe is a closed-form exposure evaluation
// plus a pure flip check, so the search costs O(site × log N) cell
// evaluations instead of O(N log N) simulated commands. A probe's flips
// live in the prober's buffer, so the search copies those of the lowest
// flipping count it has seen into its own best list, which a later, lower
// count overwrites in place.
func (p *prober) searchACmin(s site, onTime dram.TimePS) (RowResult, error) {
	slot := onTime + p.b.Mod.Timing.TRP
	hi := maxActivations(p.cfg.TimeBudget, slot, len(s.aggressors))

	flips, err := p.probe(s, hi, onTime, 0)
	if err != nil {
		return RowResult{}, fmt.Errorf("characterize: probe(%d): %w", hi, err)
	}
	if len(flips) == 0 {
		return RowResult{Loc: s.loc}, nil
	}
	lo := 0
	best := slices.Clone(flips)
	for hi-lo > 1 && float64(hi-lo) > p.cfg.Accuracy*float64(hi) {
		mid := lo + (hi-lo)/2
		flips, err := p.probe(s, mid, onTime, 0)
		if err != nil {
			return RowResult{}, fmt.Errorf("characterize: probe(%d): %w", mid, err)
		}
		if len(flips) > 0 {
			hi, best = mid, append(best[:0], flips...)
		} else {
			lo = mid
		}
	}
	return RowResult{Loc: s.loc, ACmin: hi, Found: true, Flips: best}, nil
}

// searchACminTrials repeats the search over cfg.Trials measurement
// repetitions and keeps the minimum observed ACmin, as the paper does.
func searchACminTrials(p *prober, s site, onTime dram.TimePS) (RowResult, error) {
	result := RowResult{Loc: s.loc}
	for trial := 1; trial <= p.cfg.Trials; trial++ {
		p.b.SetTrial(uint64(trial))
		r, err := p.searchACmin(s, onTime)
		if err != nil {
			return RowResult{}, err
		}
		if r.Found && (!result.Found || r.ACmin < result.ACmin) {
			result = r
		}
	}
	p.b.SetTrial(0)
	return result, nil
}

// NewBench builds the standard characterization bench for a module spec.
func NewBench(spec chipgen.ModuleSpec, cfg Config, tempC float64) (*bender.Bench, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return bender.New(spec, cfg.Geometry, cfg.Bank, tempC)
}

// ACminSweep measures the ACmin distribution of one module over the given
// tAggON values at temperature tempC — the core experiment behind
// Figs. 1, 6, 7, 13, 17, and 18. It is ACminColumns over every tested
// location on one bench, stitched into points by AssembleACminSweep.
func ACminSweep(spec chipgen.ModuleSpec, cfg Config, tempC float64, tAggONs []dram.TimePS) ([]SweepPoint, error) {
	locs := testedLocations(cfg.Geometry, cfg.RowsToTest)
	cols, err := ACminColumns(spec, cfg, tempC, tAggONs, locs)
	if err != nil {
		return nil, err
	}
	return AssembleACminSweep(tAggONs, cols), nil
}

// ACminColumns runs the ACmin searches of the given tested locations:
// per location, the full tAggON lattice of searches, on a private
// bench. Results are indexed [location][tAggON]. Running every location
// of TestedLocations through ACminColumns (in any partition) and
// stitching with AssembleACminSweep gives ACminSweep's output bit for
// bit — this is the sub-shard work function behind the split ACmin
// experiments, and ACminSweep is its serial wrapper. The tests hold the
// columns to the tAggON-major order the paper's sweep runs in (tAggON
// outer, location inner).
func ACminColumns(spec chipgen.ModuleSpec, cfg Config, tempC float64, tAggONs []dram.TimePS, locs []int) ([][]RowResult, error) {
	b, err := NewBench(spec, cfg, tempC)
	if err != nil {
		return nil, err
	}
	p := newProber(b, cfg)
	out := make([][]RowResult, len(locs))
	for li, loc := range locs {
		s := siteFor(loc, cfg.Sided)
		col := make([]RowResult, 0, len(tAggONs))
		for _, on := range tAggONs {
			r, err := searchACminTrials(p, s, on)
			if err != nil {
				return nil, err
			}
			col = append(col, r)
		}
		out[li] = col
	}
	return out, nil
}

// AssembleACminSweep stitches per-location columns — ACminColumns
// results concatenated over a partition of the sweep's locations, in
// location order — back into ACminSweep's point layout.
func AssembleACminSweep(tAggONs []dram.TimePS, cols [][]RowResult) []SweepPoint {
	points := make([]SweepPoint, len(tAggONs))
	for ti, on := range tAggONs {
		pt := SweepPoint{TAggON: on, Results: make([]RowResult, 0, len(cols))}
		for _, col := range cols {
			pt.Results = append(pt.Results, col[ti])
		}
		points[ti] = pt
	}
	return points
}
