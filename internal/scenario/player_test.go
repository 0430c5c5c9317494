package scenario

import (
	"testing"

	"repro/internal/chipgen"
	"repro/internal/dram"
)

func playerTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Sites = 2
	cfg.MaxActs = 30_000
	cfg.MaxTime = 64 * dram.Millisecond
	return cfg
}

func testModuleSpec(t *testing.T) chipgen.ModuleSpec {
	t.Helper()
	spec, ok := chipgen.ByID("S3")
	if !ok {
		t.Fatal("unknown module S3")
	}
	return spec
}

// TestPlayerPauseResumeMatchesReplay pins the prefix property the
// replay-free search stands on: pausing a player at n aggressor
// activations (in several uneven hops) and pure-probing the victims gives
// exactly the outcome of a fresh playSite run with budget n followed by a
// real check — for every mitigation and for decoyed, REF-synchronized
// schedules.
func TestPlayerPauseResumeMatchesReplay(t *testing.T) {
	mod := testModuleSpec(t)
	cfg := playerTestConfig()
	scenarios := []string{"ds-hammer", "ss-press-70us", "combined-b4-7.8us", "combined-b4-7.8us-decoy", "ds-hammer-decoy"}
	pauses := []int{137, 1000, 4096, 9999, 20_000}
	for _, name := range scenarios {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown scenario %s", name)
		}
		for _, kind := range AllMitigations() {
			site := cfg.sites(sc.Sides)[0]
			seed := cfg.siteSeed(sc, 0)

			mit, err := cfg.NewMitigation(kind, seed)
			if err != nil {
				t.Fatal(err)
			}
			pl, err := cfg.newPlayer(mod, sc, site, mit)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range pauses {
				if err := pl.playTo(n); err != nil {
					t.Fatal(err)
				}
				got := pl.outcome()
				if got.BitFlips, err = pl.flips(); err != nil {
					t.Fatal(err)
				}
				// The early-exit predicate the search probes through must
				// agree with the counting probe.
				hit, err := pl.wouldFlip()
				if err != nil {
					t.Fatal(err)
				}
				if hit != (got.BitFlips > 0) {
					t.Fatalf("%s/%s paused at %d: wouldFlip=%v but flips=%d", name, kind, n, hit, got.BitFlips)
				}

				refMit, err := cfg.NewMitigation(kind, seed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := cfg.playSite(mod, sc, site, refMit, n)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s/%s paused at %d: player %+v != replayed %+v", name, kind, n, got, want)
				}
			}
		}
	}
}

// TestCheckpointSearchMatchesReplaySearch holds the production site
// measurement — one play whose doubling probes are pauses of the
// full-budget play, then a checkpointed bisection — against the
// replay-from-scratch references: the budget outcome must equal playSite's
// and the minimum exposure searchMinActsReplay's, for every mitigation.
func TestCheckpointSearchMatchesReplaySearch(t *testing.T) {
	mod := testModuleSpec(t)
	cfg := playerTestConfig()
	for _, name := range []string{"ds-hammer", "combined-b4-7.8us", "combined-b4-7.8us-decoy"} {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown scenario %s", name)
		}
		for _, kind := range AllMitigations() {
			for si := range cfg.sites(sc.Sides) {
				checkSiteMatchesReplay(t, mod, sc, kind, cfg, si)
			}
		}
	}
}

// TestCheckpointSearchTimeCapAtProbe pins the budget edge of the folded
// search: when the slot that reaches a doubling probe is also the one
// whose PRE instant hits MaxTime, an uninterrupted play stops there on the
// time budget, so the reference never probes it. The folded play must stop
// there too, time-capped, without probing — at probe 256, which misses,
// and at 1024, the first probe that flips, so the capped play's flips
// drive the search.
func TestCheckpointSearchTimeCapAtProbe(t *testing.T) {
	mod := testModuleSpec(t)
	sc, ok := ByName("ss-press-70us")
	if !ok {
		t.Fatal("unknown scenario ss-press-70us")
	}
	for _, tc := range []struct {
		probe int
		flips bool
	}{{256, false}, {1024, true}} {
		cfg := playerTestConfig()
		cfg.MaxTime = 256 * dram.Millisecond
		mit, err := cfg.NewMitigation(MitNone, cfg.siteSeed(sc, 0))
		if err != nil {
			t.Fatal(err)
		}
		pl, err := cfg.newPlayer(mod, sc, cfg.sites(sc.Sides)[0], mit)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.playTo(tc.probe); err != nil {
			t.Fatal(err)
		}
		if pl.out.TimeCapped || pl.out.AggActs != tc.probe {
			t.Fatalf("setup play stopped at %d acts (time-capped %v), want %d", pl.out.AggActs, pl.out.TimeCapped, tc.probe)
		}
		cfg.MaxTime = pl.stopAt - pl.lastOff // PRE instant of the slot reaching the probe
		got := checkSiteMatchesReplay(t, mod, sc, MitNone, cfg, 0)
		if !got.TimeCapped || got.AggActs != tc.probe || (got.BitFlips > 0) != tc.flips {
			t.Fatalf("probe %d: want a time-capped play of %d acts with flips=%v, got %+v", tc.probe, tc.probe, tc.flips, got)
		}
	}
}

// checkSiteMatchesReplay compares CharacterizeSite for one site with the
// replay references and returns the measured result.
func checkSiteMatchesReplay(t *testing.T, mod chipgen.ModuleSpec, sc Spec, kind MitigationKind, cfg Config, si int) SiteResult {
	t.Helper()
	got, err := CharacterizeSite(mod, sc, kind, cfg, si)
	if err != nil {
		t.Fatal(err)
	}
	seed := cfg.siteSeed(sc, si)
	site := cfg.sites(sc.Sides)[si]
	mit, err := cfg.NewMitigation(kind, seed)
	if err != nil {
		t.Fatal(err)
	}
	full, err := cfg.playSite(mod, sc, site, mit, cfg.MaxActs)
	if err != nil {
		t.Fatal(err)
	}
	want := SiteResult{
		AggActs:             full.AggActs,
		BitFlips:            full.BitFlips,
		PreventiveRefreshes: full.PreventiveRefreshes,
		TimeCapped:          full.TimeCapped,
	}
	if full.BitFlips > 0 {
		if want.MinActs, want.MinTime, err = cfg.searchMinActsReplay(mod, sc, site, kind, seed, full.AggActs, full.Elapsed); err != nil {
			t.Fatal(err)
		}
	}
	if got != want {
		t.Fatalf("%s/%s site %d: folded search %+v (min time %s) != replay %+v (min time %s)",
			sc.Name, kind, si, got, dram.FormatTime(got.MinTime), want, dram.FormatTime(want.MinTime))
	}
	return got
}
