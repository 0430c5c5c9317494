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

// TestCheckpointSearchMatchesReplaySearch holds the checkpoint-based
// min-exposure search against the replay-from-scratch reference: same
// minimum activation count, same time-to-flip, for every mitigation.
func TestCheckpointSearchMatchesReplaySearch(t *testing.T) {
	mod := testModuleSpec(t)
	cfg := playerTestConfig()
	for _, name := range []string{"ds-hammer", "combined-b4-7.8us", "combined-b4-7.8us-decoy"} {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("unknown scenario %s", name)
		}
		for _, kind := range AllMitigations() {
			for si, site := range cfg.sites(sc.Sides) {
				seed := cfg.siteSeed(sc, si)

				// Full-budget play to establish the search precondition.
				mit, err := cfg.NewMitigation(kind, seed)
				if err != nil {
					t.Fatal(err)
				}
				full, err := cfg.playSite(mod, sc, site, mit, cfg.MaxActs)
				if err != nil {
					t.Fatal(err)
				}
				if full.BitFlips == 0 {
					continue
				}
				gotActs, gotTime, err := cfg.searchMinActs(mod, sc, site, kind, seed, full)
				if err != nil {
					t.Fatal(err)
				}
				wantActs, wantTime, err := cfg.searchMinActsReplay(mod, sc, site, kind, seed, full.AggActs, full.Elapsed)
				if err != nil {
					t.Fatal(err)
				}
				if gotActs != wantActs || gotTime != wantTime {
					t.Fatalf("%s/%s site %d: checkpoint search (%d, %s) != replay search (%d, %s)",
						name, kind, si, gotActs, dram.FormatTime(gotTime), wantActs, dram.FormatTime(wantTime))
				}
			}
		}
	}
}
