package scenario

import (
	"testing"

	"repro/internal/chipgen"
)

// Min-exposure search benchmarks on a scenario whose bracket sits deep
// enough that replays dominate the reference's cost. The checkpoint
// benchmark measures one whole site as production runs it — the
// full-budget play with the doubling probes folded into it, then the
// checkpointed bisection; the replay benchmark measures the reference
// search alone, given the full play's outcome.

func benchSearchSetup(b *testing.B) (chipgen.ModuleSpec, Spec, sitePlan, uint64, Outcome, Config) {
	b.Helper()
	spec, ok := chipgen.ByID("S3")
	if !ok {
		b.Fatal("unknown module S3")
	}
	sc, ok := ByName("combined-b4-7.8us")
	if !ok {
		b.Fatal("unknown scenario")
	}
	cfg := DefaultConfig()
	cfg.Sites = 1
	cfg.MaxActs = 60_000
	site := cfg.sites(sc.Sides)[0]
	seed := cfg.siteSeed(sc, 0)
	mit, err := cfg.NewMitigation(MitNone, seed)
	if err != nil {
		b.Fatal(err)
	}
	full, err := cfg.playSite(spec, sc, site, mit, cfg.MaxActs)
	if err != nil {
		b.Fatal(err)
	}
	if full.BitFlips == 0 {
		b.Fatal("benchmark scenario does not flip; search benchmarks need a bracket")
	}
	return spec, sc, site, seed, full, cfg
}

func BenchmarkScenarioSearchCheckpoint(b *testing.B) {
	spec, sc, _, _, _, cfg := benchSearchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CharacterizeSite(spec, sc, MitNone, cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScenarioSearchReplay(b *testing.B) {
	spec, sc, site, seed, full, cfg := benchSearchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cfg.searchMinActsReplay(spec, sc, site, MitNone, seed, full.AggActs, full.Elapsed); err != nil {
			b.Fatal(err)
		}
	}
}
