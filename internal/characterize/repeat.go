package characterize

import (
	"repro/internal/bender"
	"repro/internal/chipgen"
	"repro/internal/dram"
)

// RepeatabilityResult is the Appendix E histogram: how many observed
// bitflips occurred in exactly k of the repeated trials (k = 1..Trials).
type RepeatabilityResult struct {
	TAggON      dram.TimePS
	Occurrences []int // index k-1: flips seen in exactly k trials
	TotalFlips  int
}

// Percent returns the percentage of flips with exactly k occurrences.
func (r RepeatabilityResult) Percent(k int) float64 {
	if r.TotalFlips == 0 || k < 1 || k > len(r.Occurrences) {
		return 0
	}
	return 100 * float64(r.Occurrences[k-1]) / float64(r.TotalFlips)
}

// RepeatabilityStudy hammers each tested location cfg.Trials times at a
// fixed activation count (the budget-limited maximum, as the bitflip-
// coverage experiments use) and histograms per-cell occurrence counts
// (Figs. 42–45). Trials run replay-free on one threaded prober; the
// differential tests pin this against a per-command reference that
// replays every trial's full command stream.
func RepeatabilityStudy(spec chipgen.ModuleSpec, cfg Config, tempC float64, tAggONs []dram.TimePS) ([]RepeatabilityResult, error) {
	b, err := NewBench(spec, cfg, tempC)
	if err != nil {
		return nil, err
	}
	p := newProber(b, cfg)
	return repeatabilityStudy(b, cfg, tAggONs, func(s site, count int, on dram.TimePS) ([]bender.Flip, error) {
		return p.probe(s, count, on, 0)
	})
}

// repeatabilityStudy is the shared trial walk over a probe function; the
// prober and the tests' replay reference differ only in how one trial
// measures.
func repeatabilityStudy(b *bender.Bench, cfg Config, tAggONs []dram.TimePS,
	probe func(s site, count int, on dram.TimePS) ([]bender.Flip, error)) ([]RepeatabilityResult, error) {
	locs := testedLocations(cfg.Geometry, cfg.RowsToTest)
	out := make([]RepeatabilityResult, 0, len(tAggONs))
	for _, on := range tAggONs {
		res := RepeatabilityResult{TAggON: on, Occurrences: make([]int, cfg.Trials)}
		counts := make(map[CellKey]int)
		slot := on + b.Mod.Timing.TRP
		for _, loc := range locs {
			s := siteFor(loc, cfg.Sided)
			count := maxActivations(cfg.TimeBudget, slot, len(s.aggressors))
			for trial := 1; trial <= cfg.Trials; trial++ {
				b.SetTrial(uint64(trial))
				flips, err := probe(s, count, on)
				if err != nil {
					return nil, err
				}
				// A check reports each flipped cell once.
				for _, f := range flips {
					counts[cellOf(f)]++
				}
			}
		}
		b.SetTrial(0)
		for _, n := range counts {
			if n >= 1 && n <= cfg.Trials {
				res.Occurrences[n-1]++
				res.TotalFlips++
			}
		}
		out = append(out, res)
	}
	return out, nil
}
