package scenario

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/dram"
)

// These tests pin the per-site decomposition (the sub-shard work of the
// split scenario experiments) bit-identical to the serial measure loop
// below: CharacterizeSite/EvaluateSite over every site, folded in site
// order, must reproduce Characterize/Evaluate exactly.

// Characterize measures one (module, scenario, mitigation) cell: a full
// budget play per site, plus a doubling + bisection search for the
// minimum exposure to first flip (played fresh each probe — mitigation
// state, module state, and randomized decisions all restart, so probes
// are true prefixes of each other).
func Characterize(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, cfg Config) (Result, error) {
	return measure(module, spec, kind, cfg, true)
}

// Evaluate is Characterize without the min-exposure search: one full
// budget play per site, the serial reference for EvaluateSite.
func Evaluate(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, cfg Config) (Result, error) {
	return measure(module, spec, kind, cfg, false)
}

// measure plays every site of the cell in order and aggregates inline —
// the serial loop FoldSites must reproduce.
func measure(module chipgen.ModuleSpec, spec Spec, kind MitigationKind, cfg Config, search bool) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := spec.Validate(dram.DDR4()); err != nil {
		return Result{}, err
	}
	sites := cfg.sites(spec.Sides)
	if len(sites) == 0 {
		return Result{}, fmt.Errorf("scenario: geometry with %d rows/bank cannot host a %d-sided site",
			cfg.Geometry.RowsPerBank, spec.Sides)
	}
	res := Result{Module: module.ID, Scenario: spec.Name, Mitigation: kind}
	totalAggActs := 0
	for si, site := range sites {
		res.Sites++
		seed := cfg.siteSeed(spec, si)
		// Full-budget play on the incremental player; the final victim
		// check runs through the module's pure probe, which reports the
		// same flips an executed check stream would.
		mit, err := cfg.NewMitigation(kind, seed)
		if err != nil {
			return Result{}, err
		}
		pl, err := cfg.newPlayer(module, spec, site, mit)
		if err != nil {
			return Result{}, err
		}
		if err := pl.playTo(cfg.MaxActs); err != nil {
			return Result{}, err
		}
		full := pl.outcome()
		if full.BitFlips, err = pl.flips(); err != nil {
			return Result{}, err
		}
		res.BitFlips += full.BitFlips
		res.PreventiveRefreshes += full.PreventiveRefreshes
		res.TimeCapped = res.TimeCapped || full.TimeCapped
		totalAggActs += full.AggActs
		if full.AggActs > res.BudgetActs {
			res.BudgetActs = full.AggActs
		}
		if full.BitFlips == 0 {
			continue
		}
		res.SitesWithFlips++
		if !search {
			res.FlipFound = true
			continue
		}
		minActs, minTime, err := cfg.searchMinActsReplay(module, spec, site, kind, seed, full.AggActs, full.Elapsed)
		if err != nil {
			return Result{}, err
		}
		if !res.FlipFound || minActs < res.MinActs {
			res.MinActs, res.MinTime, res.FlipFound = minActs, minTime, true
		}
	}
	if totalAggActs > 0 {
		res.RefreshOverhead = 1000 * float64(res.PreventiveRefreshes) / float64(totalAggActs)
	}
	return res, nil
}

func TestCharacterizeSitesFoldMatchesMeasure(t *testing.T) {
	mod := testModule(t)
	cfg := testConfig()
	for _, name := range []string{"ds-hammer", "combined-b4-7.8us", "ss-press-70us", "ds-hammer-decoy"} {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("scenario %s missing", name)
		}
		want, err := Characterize(mod, sc, MitNone, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := SiteCount(sc, cfg)
		if n < 2 {
			t.Fatalf("%s: want ≥2 sites for a meaningful split, got %d", name, n)
		}
		parts := make([]SiteResult, n)
		// Sites run out of order on the pool; measure them reversed here to
		// pin order-independence of the per-site work itself.
		for j := n - 1; j >= 0; j-- {
			if parts[j], err = CharacterizeSite(mod, sc, MitNone, cfg, j); err != nil {
				t.Fatal(err)
			}
		}
		if got := FoldSites(mod, sc, MitNone, parts, true); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: folded per-site results diverge from Characterize:\n got %+v\nwant %+v", name, got, want)
		}
	}
}

func TestEvaluateSitesFoldMatchesMeasure(t *testing.T) {
	mod := testModule(t)
	cfg := testConfig()
	sc, _ := ByName("ds-hammer")
	for _, kind := range AllMitigations() {
		want, err := Evaluate(mod, sc, kind, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := SiteCount(sc, cfg)
		parts := make([]SiteResult, n)
		for j := 0; j < n; j++ {
			if parts[j], err = EvaluateSite(mod, sc, kind, cfg, j); err != nil {
				t.Fatal(err)
			}
		}
		if got := FoldSites(mod, sc, kind, parts, false); !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s: folded per-site results diverge from Evaluate:\n got %+v\nwant %+v", sc.Name, kind, got, want)
		}
	}
}

func TestMeasureSiteRange(t *testing.T) {
	mod := testModule(t)
	cfg := testConfig()
	sc, _ := ByName("ds-hammer")
	if _, err := CharacterizeSite(mod, sc, MitNone, cfg, SiteCount(sc, cfg)); err == nil {
		t.Fatal("out-of-range site index accepted")
	}
	if _, err := CharacterizeSite(mod, sc, MitNone, cfg, -1); err == nil {
		t.Fatal("negative site index accepted")
	}
}
