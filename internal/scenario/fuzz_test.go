package scenario

import (
	"math"
	"testing"

	"repro/internal/dram"
)

// FuzzSpec builds a Spec from fuzzed pattern fields and, when Validate
// accepts it, plays one site under a fuzzed mitigation with a 2000-act
// budget. Every accepted spec must play to a bounded end: the play
// returns, stays within the activation budget, counts every aggressor
// slot among its activations, and ends at a non-negative pattern time.
// The seeds are the specs that once passed Validate yet never finished
// (a 2^62 ps dwell) or overflowed the clock (a MaxInt64 off time), plus a
// MaxInt burst and a full REF-synchronized decoy pool. Plain `go test`
// runs the seed corpus only.
func FuzzSpec(f *testing.F) {
	ns := int64(dram.Nanosecond)
	f.Add(int(Press), 1, int64(1)<<62, 0, int64(0), 0, 0, uint8(0))
	f.Add(int(Hammer), 1, int64(0), 0, int64(math.MaxInt64), 0, 0, uint8(0))
	f.Add(int(Combined), 2, 7800*ns, math.MaxInt, int64(0), 0, 0, uint8(3))
	f.Add(int(Hammer), 2, int64(0), 0, int64(0), maxDecoyRows, 0, uint8(3))
	f.Add(int(Press), 2, int64(dram.DDR4().TREFW), 0, int64(dram.DDR4().TREFW), 4, 1, uint8(4))
	f.Fuzz(func(t *testing.T, kind, sides int, tAggON int64, burst int, extraOff int64, decoyRows, decoyEvery int, mit uint8) {
		spec := Spec{
			Name: "fuzz", Kind: Kind(kind), Sides: sides,
			TAggON: dram.TimePS(tAggON), Burst: burst, ExtraOff: dram.TimePS(extraOff),
			DecoyRows: decoyRows, DecoyEvery: decoyEvery,
		}
		if spec.Validate(dram.DDR4()) != nil {
			return
		}
		cfg := DefaultConfig()
		cfg.Sites = 1
		cfg.MaxActs = 2000
		kinds := AllMitigations()
		mk := kinds[int(mit)%len(kinds)]
		sr, err := EvaluateSite(testModule(t), spec, mk, cfg, 0)
		if err != nil {
			t.Fatalf("%+v under %s: %v", spec, mk, err)
		}
		if sr.AggActs > cfg.MaxActs {
			t.Fatalf("%+v under %s: %d aggressor acts over the %d budget", spec, mk, sr.AggActs, cfg.MaxActs)
		}
		// Outcome's slot count and pattern time are not part of the
		// site result; replay the same site on a player to read them.
		m, err := cfg.NewMitigation(mk, cfg.siteSeed(spec, 0))
		if err != nil {
			t.Fatal(err)
		}
		pl, err := cfg.newPlayer(testModule(t), spec, cfg.sites(spec.Sides)[0], m)
		if err != nil {
			t.Fatal(err)
		}
		if err := pl.playTo(cfg.MaxActs); err != nil {
			t.Fatal(err)
		}
		out := pl.outcome()
		switch {
		case out.AggActs != sr.AggActs || out.TimeCapped != sr.TimeCapped:
			t.Fatalf("%+v under %s: player outcome %+v disagrees with site result %+v", spec, mk, out, sr)
		case out.TotalActs < out.AggActs:
			t.Fatalf("%+v under %s: %d activations, fewer than %d aggressor acts", spec, mk, out.TotalActs, out.AggActs)
		case out.Elapsed < 0:
			t.Fatalf("%+v under %s: negative pattern time %d", spec, mk, out.Elapsed)
		}
	})
}
