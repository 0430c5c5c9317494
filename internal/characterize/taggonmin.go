package characterize

import (
	"fmt"

	"repro/internal/chipgen"
	"repro/internal/dram"
)

// TAggONminResult is the outcome of a tAggONmin search at one location.
type TAggONminResult struct {
	Loc       int
	TAggONmin dram.TimePS // minimum per-activation row-open time causing ≥1 bitflip
	Found     bool
}

// TAggONminPoint aggregates the per-row tAggONmin results at one
// activation count (Fig. 9's x-axis).
type TAggONminPoint struct {
	AC      int
	Results []TAggONminResult
}

// Values returns the tAggONmin of every row that flipped, in microseconds.
func (p TAggONminPoint) Values() []float64 {
	var vs []float64
	for _, r := range p.Results {
		if r.Found {
			vs = append(vs, dram.Seconds(r.TAggONmin)*1e6)
		}
	}
	return vs
}

// searchTAggONmin is the replay-free bisection over the row-open time:
// probes are closed-form exposure evaluations, so widening or narrowing
// the dwell costs the same O(site) work regardless of the dwell length.
func (p *prober) searchTAggONmin(s site, ac int) (TAggONminResult, error) {
	tRAS, tRP := p.b.Mod.Timing.TRAS, p.b.Mod.Timing.TRP
	hi := p.cfg.TimeBudget/dram.TimePS(ac) - tRP
	if hi <= tRAS {
		return TAggONminResult{Loc: s.loc}, nil
	}

	probe := func(on dram.TimePS) (bool, error) {
		flips, err := p.probe(s, ac, on, 0)
		return len(flips) > 0, err
	}

	ok, err := probe(hi)
	if err != nil {
		return TAggONminResult{}, fmt.Errorf("characterize: tAggONmin probe(%s): %w", dram.FormatTime(hi), err)
	}
	if !ok {
		return TAggONminResult{Loc: s.loc}, nil
	}
	lo := tRAS
	for hi-lo > 1 && float64(hi-lo) > p.cfg.Accuracy*float64(hi) {
		mid := lo + (hi-lo)/2
		ok, err := probe(mid)
		if err != nil {
			return TAggONminResult{}, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return TAggONminResult{Loc: s.loc, TAggONmin: hi, Found: true}, nil
}

func searchTAggONminTrials(p *prober, s site, ac int) (TAggONminResult, error) {
	result := TAggONminResult{Loc: s.loc}
	for trial := 1; trial <= p.cfg.Trials; trial++ {
		p.b.SetTrial(uint64(trial))
		r, err := p.searchTAggONmin(s, ac)
		if err != nil {
			return TAggONminResult{}, err
		}
		if r.Found && (!result.Found || r.TAggONmin < result.TAggONmin) {
			result = r
		}
	}
	p.b.SetTrial(0)
	return result, nil
}

// StandardACs is the activation-count lattice of Fig. 9 (1 to 10 K).
var StandardACs = []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}

// TAggONminSweep measures tAggONmin as the activation count grows
// (Fig. 9) or, with acs = {1}, at one temperature of the Fig. 15 sweep.
// It is TAggONminColumns over every tested location on one bench,
// stitched into points by AssembleTAggONminSweep.
func TAggONminSweep(spec chipgen.ModuleSpec, cfg Config, tempC float64, acs []int) ([]TAggONminPoint, error) {
	locs := testedLocations(cfg.Geometry, cfg.RowsToTest)
	cols, err := TAggONminColumns(spec, cfg, tempC, acs, locs)
	if err != nil {
		return nil, err
	}
	return AssembleTAggONminSweep(acs, cols), nil
}

// TAggONminColumns is ACminColumns' counterpart for the tAggONmin
// search: the searches of the given tested locations, indexed
// [location][ac], with TAggONminSweep as its serial wrapper.
func TAggONminColumns(spec chipgen.ModuleSpec, cfg Config, tempC float64, acs []int, locs []int) ([][]TAggONminResult, error) {
	b, err := NewBench(spec, cfg, tempC)
	if err != nil {
		return nil, err
	}
	p := newProber(b, cfg)
	out := make([][]TAggONminResult, len(locs))
	for li, loc := range locs {
		s := siteFor(loc, cfg.Sided)
		col := make([]TAggONminResult, 0, len(acs))
		for _, ac := range acs {
			r, err := searchTAggONminTrials(p, s, ac)
			if err != nil {
				return nil, err
			}
			col = append(col, r)
		}
		out[li] = col
	}
	return out, nil
}

// AssembleTAggONminSweep stitches per-location columns (concatenated in
// location order) back into TAggONminSweep's point layout.
func AssembleTAggONminSweep(acs []int, cols [][]TAggONminResult) []TAggONminPoint {
	points := make([]TAggONminPoint, len(acs))
	for ai, ac := range acs {
		pt := TAggONminPoint{AC: ac, Results: make([]TAggONminResult, 0, len(cols))}
		for _, col := range cols {
			pt.Results = append(pt.Results, col[ai])
		}
		points[ai] = pt
	}
	return points
}

// TAggONminTempSweep runs the Fig. 15 experiment: tAggONmin at AC = 1 as
// the chip temperature steps from 50 °C to 80 °C in 5 °C increments, on a
// single bench whose heater rig is re-settled between steps.
func TAggONminTempSweep(spec chipgen.ModuleSpec, cfg Config) (map[float64]TAggONminPoint, error) {
	b, err := NewBench(spec, cfg, 50)
	if err != nil {
		return nil, err
	}
	p := newProber(b, cfg)
	locs := testedLocations(cfg.Geometry, cfg.RowsToTest)
	out := make(map[float64]TAggONminPoint)
	for temp := 50.0; temp <= 80; temp += 5 {
		// The prober keeps the bench clock current, so the heater-rig
		// settle lands at the right simulated time.
		if err := b.SetTemperature(temp); err != nil {
			return nil, err
		}
		pt := TAggONminPoint{AC: 1}
		for _, loc := range locs {
			r, err := searchTAggONminTrials(p, siteFor(loc, cfg.Sided), 1)
			if err != nil {
				return nil, err
			}
			pt.Results = append(pt.Results, r)
		}
		out[temp] = pt
	}
	return out, nil
}
