package scenario

import (
	"errors"
	"fmt"

	"repro/internal/chipgen"
	"repro/internal/dram"
	"repro/internal/mitigate"
	"repro/internal/stats"
)

// MitigationKind names the mitigations the scenario harness can wire
// into the activation stream.
type MitigationKind string

// The evaluated mitigations.
const (
	MitNone     MitigationKind = "none"
	MitPARA     MitigationKind = "para"
	MitGraphene MitigationKind = "graphene"
	MitTRR      MitigationKind = "trr"
	MitImPress  MitigationKind = "impress"
)

// AllMitigations lists the evaluated mitigations in report order.
func AllMitigations() []MitigationKind {
	return []MitigationKind{MitNone, MitPARA, MitGraphene, MitTRR, MitImPress}
}

// Config fixes the playback methodology for one characterization: the
// module geometry, the tested-site count, the per-site activation and
// simulated-time budgets, and the mitigation sizing. Following §4.1 the
// harness keeps periodic victim refresh disabled — REF events still fire
// as mitigation hooks (TRR samples at REF; window-based trackers reset
// every tREFW), but victims accumulate disturbance for the whole play,
// so the measured minimum exposures are circuit-level properties.
type Config struct {
	Geometry dram.Geometry
	Bank     int
	Sites    int         // tested victim sites per (module, scenario)
	MaxActs  int         // aggressor-activation budget per play
	MaxTime  dram.TimePS // simulated-time budget per play
	Pattern  dram.DataPattern
	Accuracy float64 // min-exposure bisection termination, fraction
	TempC    float64
	Seed     uint64 // randomized mitigations (PARA)

	// Mitigation sizing: trackers trigger at TRH/3 (the Graphene sizing
	// rule the paper's Table 3 follows), PARA's probability is re-derived
	// from TRH, and ImPress charges ImPressQuantum of open time as one
	// extra tracked activation.
	TRH            int
	TableSize      int
	TRREntries     int
	ImPressQuantum dram.TimePS
}

// DefaultConfig returns the standard scenario methodology.
func DefaultConfig() Config {
	return Config{
		Geometry: dram.DefaultGeometry(),
		Bank:     1,
		Sites:    3,
		MaxActs:  1_000_000,
		MaxTime:  256 * dram.Millisecond,
		Pattern:  dram.CheckerBoard,
		Accuracy: 0.05,
		TempC:    50,
		Seed:     1,

		TRH:            32_000,
		TableSize:      64,
		TRREntries:     4,
		ImPressQuantum: mitigate.DefaultImPressQuantum,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	switch {
	case c.Bank < 0 || c.Bank >= c.Geometry.Banks:
		return fmt.Errorf("scenario: bank %d outside geometry with %d banks", c.Bank, c.Geometry.Banks)
	case c.Sites <= 0:
		return fmt.Errorf("scenario: Sites must be positive")
	case c.MaxActs <= 0 || c.MaxTime <= 0:
		return fmt.Errorf("scenario: MaxActs and MaxTime must be positive")
	case c.Accuracy <= 0 || c.Accuracy >= 1:
		return fmt.Errorf("scenario: Accuracy must be in (0,1)")
	case c.TRH <= 0 || c.TableSize <= 0 || c.TRREntries <= 0 || c.ImPressQuantum <= 0:
		return fmt.Errorf("scenario: mitigation sizing must be positive")
	}
	return nil
}

// NewMitigation instantiates one sized mitigation. seed only matters for
// randomized mechanisms.
func (c Config) NewMitigation(kind MitigationKind, seed uint64) (mitigate.Mitigation, error) {
	threshold := c.TRH / 3
	if threshold < 1 {
		threshold = 1
	}
	switch kind {
	case MitNone:
		return mitigate.None{}, nil
	case MitPARA:
		p := 34.0 / float64(c.TRH)
		if p > 1 {
			p = 1
		}
		return mitigate.NewPARA(p, seed), nil
	case MitGraphene:
		return mitigate.NewGraphene(threshold, c.TableSize), nil
	case MitTRR:
		return mitigate.NewTRR(c.TRREntries), nil
	case MitImPress:
		return mitigate.NewImPress(threshold, c.TableSize, c.ImPressQuantum), nil
	default:
		return nil, fmt.Errorf("scenario: unknown mitigation %q", kind)
	}
}

// sitePlan is the physical layout of one tested site: the aggressor ring,
// the victim rows inside the blast radius, and the shared decoy pool.
type sitePlan struct {
	loc        int
	aggressors []int
	victims    []int
	decoys     []int
}

// decoyBase is where the decoy pool starts; sites are placed beyond the
// pool so decoy disturbance can never reach a victim. Decoys sit
// decoyStride rows apart, outside each other's blast radius.
const (
	decoyBase   = 16
	decoyStride = 8
)

// siteFor lays out the aggressor ring around loc: single-sided hammers
// loc itself, double-sided loc±1, many-sided alternates outward
// (loc−1, loc+1, loc−2, loc+2, …). Victims are every non-aggressor row
// within the blast radius of any aggressor.
func siteFor(loc, sides int) sitePlan {
	s := sitePlan{loc: loc}
	if sides == 1 {
		s.aggressors = []int{loc}
	} else {
		for d := 1; len(s.aggressors) < sides; d++ {
			s.aggressors = append(s.aggressors, loc-d)
			if len(s.aggressors) < sides {
				s.aggressors = append(s.aggressors, loc+d)
			}
		}
	}
	isAgg := make(map[int]bool, len(s.aggressors))
	lo, hi := s.aggressors[0], s.aggressors[0]
	for _, a := range s.aggressors {
		isAgg[a] = true
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	for r := lo - dram.BlastRadius; r <= hi+dram.BlastRadius; r++ {
		if !isAgg[r] {
			s.victims = append(s.victims, r)
		}
	}
	return s
}

// sites spreads cfg.Sites tested locations across the bank, clear of the
// decoy pool and the array edges, spaced so neighboring sites' blast
// radii never interact.
func (c Config) sites(sides int) []sitePlan {
	margin := decoyBase + decoyStride*maxDecoyRows + 32
	usable := c.Geometry.RowsPerBank - margin - 16
	n := c.Sites
	if n > usable/64 {
		n = usable / 64
	}
	if n < 1 {
		n = 1
	}
	step := usable / n
	if step < 64 {
		step = 64
	}
	out := make([]sitePlan, 0, n)
	for i := 0; i < n; i++ {
		loc := margin + i*step + step/2
		if loc+sides+dram.BlastRadius >= c.Geometry.RowsPerBank-8 {
			break
		}
		out = append(out, siteFor(loc, sides))
	}
	return out
}

// decoyPool returns the shared decoy rows, spaced so decoys never sit in
// each other's blast radius.
func decoyPool(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = decoyBase + decoyStride*i
	}
	return out
}

// isDecoy reports whether row is one of decoyPool(n) — by the pool's
// layout, so the per-slot test is arithmetic rather than a map probe.
func isDecoy(row, n int) bool {
	i := row - decoyBase
	return i >= 0 && i%decoyStride == 0 && i/decoyStride < n
}

// Outcome is one playback measurement.
type Outcome struct {
	AggActs             int         // aggressor activations played
	TotalActs           int         // including decoys
	BitFlips            int         // victim bitflips materialized at the final check
	PreventiveRefreshes uint64      // rows preventively refreshed by the mitigation
	Elapsed             dram.TimePS // simulated pattern time
	TimeCapped          bool        // playback stopped on MaxTime, not MaxActs
}

// errTimeBudget and errActBudget abort a playback cleanly when the
// simulated-time or aggressor-activation budget is reached.
var (
	errTimeBudget = errors.New("scenario: simulated-time budget reached")
	errActBudget  = errors.New("scenario: activation budget reached")
)

// refresher is the mid-window REF hook (TRR samples at REF).
type refresher interface{ OnRefresh() []int }

// siteSeed derives the deterministic per-(site, scenario) mitigation
// seed so repeated plays are reproducible and sites are independent.
func (c Config) siteSeed(spec Spec, siteIdx int) uint64 {
	h := c.Seed
	for _, ch := range spec.Name {
		h = stats.Combine(h, uint64(ch))
	}
	return stats.Combine(h, uint64(siteIdx))
}

// Result is the full characterization of one (module, scenario,
// mitigation) cell: the budget-play outcome summed over sites plus the
// minimum exposure to first flip across sites.
type Result struct {
	Module     string         `json:"module"`
	Scenario   string         `json:"scenario"`
	Mitigation MitigationKind `json:"mitigation"`

	Sites      int  `json:"sites"`
	BudgetActs int  `json:"budget_acts"` // per-site aggressor budget actually played (max over sites)
	TimeCapped bool `json:"time_capped"`

	BitFlips            int     `json:"bitflips"` // total at full budget, all sites
	SitesWithFlips      int     `json:"sites_with_flips"`
	PreventiveRefreshes uint64  `json:"preventive_refreshes"` // all sites
	RefreshOverhead     float64 `json:"refresh_overhead"`     // per 1000 aggressor acts

	// Minimum exposure to first flip, across sites: the smallest
	// aggressor-activation count at which the scenario produces a bitflip,
	// and the simulated pattern time that exposure takes. Zero/false when
	// no tested site flips within the budgets.
	MinActs   int         `json:"min_acts,omitempty"`
	MinTime   dram.TimePS `json:"min_time_ps,omitempty"`
	FlipFound bool        `json:"flip_found"`
}

// SiteCount returns the number of victim sites a cell tests for this
// spec under cfg — the sub-shard count of the split scenario
// experiments.
func SiteCount(spec Spec, cfg Config) int { return len(cfg.sites(spec.Sides)) }

// SiteResult is one site's share of a cell's Result — the sub-shard
// payload of the split scenario experiments. FoldSites folds a full set
// back into the cell Result.
type SiteResult struct {
	AggActs             int         `json:"agg_acts"`
	BitFlips            int         `json:"bitflips"`
	PreventiveRefreshes uint64      `json:"preventive_refreshes"`
	TimeCapped          bool        `json:"time_capped"`
	MinActs             int         `json:"min_acts,omitempty"`
	MinTime             dram.TimePS `json:"min_time_ps,omitempty"`
}

// CharacterizeSite measures site siteIdx of the (module, scenario,
// mitigation) cell, minimum-exposure search included. Sites are fully
// independent — each plays on a fresh module with its own deterministic
// per-site seed — so the per-site measurements compose through
// FoldSites into exactly the Result a serial in-order walk of every site
// gives, whatever order they executed in.
func CharacterizeSite(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, cfg Config, siteIdx int) (SiteResult, error) {
	return measureSite(module, spec, kind, cfg, siteIdx, true)
}

// EvaluateSite is CharacterizeSite without the minimum-exposure search.
func EvaluateSite(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, cfg Config, siteIdx int) (SiteResult, error) {
	return measureSite(module, spec, kind, cfg, siteIdx, false)
}

// measureSite measures one site of the cell, addressed by site index: a
// full-budget play and, with search, the minimum-exposure search.
//
// The search rides the full-budget play, so the site plays forward once.
// The play pauses at each doubling probe (256, 512, … below MaxActs) for
// the pure flip predicate, re-arming a checkpoint at every miss; after
// the first hit it stops probing and plays on to the budget, where the
// final check counts flips. If anything flipped, the play rolls back to
// the last miss and bisects the bracket from there. A probe is taken
// only where an uninterrupted play passes it: a play the time budget
// stops at or before a probe is not probed there. Every probe therefore
// sees what a replay of that prefix would (prefix determinism), and the
// search returns the same bracket as one replaying every probe from
// scratch.
func measureSite(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, cfg Config, siteIdx int, search bool) (SiteResult, error) {
	if err := cfg.Validate(); err != nil {
		return SiteResult{}, err
	}
	if err := spec.Validate(dram.DDR4()); err != nil {
		return SiteResult{}, err
	}
	sites := cfg.sites(spec.Sides)
	if siteIdx < 0 || siteIdx >= len(sites) {
		return SiteResult{}, fmt.Errorf("scenario: site %d outside the %d tested sites", siteIdx, len(sites))
	}
	site := sites[siteIdx]
	mit, err := cfg.NewMitigation(kind, cfg.siteSeed(spec, siteIdx))
	if err != nil {
		return SiteResult{}, err
	}
	pl, err := cfg.newPlayer(module, spec, site, mit)
	if err != nil {
		return SiteResult{}, err
	}
	lo, hit := 0, false // last probe that missed; whether a probe hit
	var hiActs int
	var hiTime dram.TimePS
	if search {
		pl.checkpoint()
		for probe := 256; probe < cfg.MaxActs; probe *= 2 {
			if err := pl.playTo(probe); err != nil {
				return SiteResult{}, err
			}
			if pl.out.TimeCapped {
				break
			}
			if hit, err = pl.wouldFlip(); err != nil {
				return SiteResult{}, err
			}
			if hit {
				hiActs, hiTime = pl.out.AggActs, pl.stopAt
				break
			}
			lo = pl.out.AggActs
			pl.advanceCheckpoint()
		}
	}
	if err := pl.playTo(cfg.MaxActs); err != nil {
		return SiteResult{}, err
	}
	full := pl.outcome()
	if full.BitFlips, err = pl.flips(); err != nil {
		return SiteResult{}, err
	}
	sr := SiteResult{
		AggActs:             full.AggActs,
		BitFlips:            full.BitFlips,
		PreventiveRefreshes: full.PreventiveRefreshes,
		TimeCapped:          full.TimeCapped,
	}
	if full.BitFlips == 0 || !search {
		return sr, nil
	}
	if !hit {
		hiActs, hiTime = full.AggActs, full.Elapsed
	}
	pl.rollback()
	if sr.MinActs, sr.MinTime, err = pl.bisect(lo, hiActs, hiTime); err != nil {
		return SiteResult{}, err
	}
	return sr, nil
}

// FoldSites folds per-site results — indexed by site, covering every
// site of SiteCount in order — into the cell Result, reproducing the
// aggregation of a serial in-order walk of every site bit for bit:
// sums, the max per-site budget, the OR of time caps, and the
// first-site-wins strict minimum of the exposure search.
func FoldSites(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, parts []SiteResult, search bool) Result {
	res := Result{Module: module.ID, Scenario: spec.Name, Mitigation: kind}
	totalAggActs := 0
	for _, sr := range parts {
		res.Sites++
		res.BitFlips += sr.BitFlips
		res.PreventiveRefreshes += sr.PreventiveRefreshes
		res.TimeCapped = res.TimeCapped || sr.TimeCapped
		totalAggActs += sr.AggActs
		if sr.AggActs > res.BudgetActs {
			res.BudgetActs = sr.AggActs
		}
		if sr.BitFlips == 0 {
			continue
		}
		res.SitesWithFlips++
		if !search {
			res.FlipFound = true
			continue
		}
		if !res.FlipFound || sr.MinActs < res.MinActs {
			res.MinActs, res.MinTime, res.FlipFound = sr.MinActs, sr.MinTime, true
		}
	}
	if totalAggActs > 0 {
		res.RefreshOverhead = 1000 * float64(res.PreventiveRefreshes) / float64(totalAggActs)
	}
	return res
}
