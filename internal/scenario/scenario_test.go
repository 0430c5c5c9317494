package scenario

import (
	"encoding/csv"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/dram"
)

// testConfig is the scaled methodology the package tests run at: big
// enough that double-sided RowHammer and the combined patterns flip
// within the budget, small enough to stay fast.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Sites = 2
	cfg.MaxActs = 120_000
	return cfg
}

func testModule(t *testing.T) chipgen.ModuleSpec {
	t.Helper()
	mod, ok := chipgen.ByID("S0")
	if !ok {
		t.Fatal("module S0 missing from catalog")
	}
	return mod
}

// TestCatalogValid: every shipped scenario validates against DDR4 timing
// and names are unique.
func TestCatalogValid(t *testing.T) {
	timing := dram.DDR4()
	seen := map[string]bool{}
	for _, s := range Catalog() {
		if err := s.Validate(timing); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
	}
	if _, ok := ByName("ds-hammer"); !ok {
		t.Fatal("ByName failed on a catalog entry")
	}
	if _, ok := ByName("no-such"); ok {
		t.Fatal("ByName invented a scenario")
	}
}

// TestSpecValidation pins the rejection cases.
func TestSpecValidation(t *testing.T) {
	timing := dram.DDR4()
	bad := []Spec{
		{},                                  // no name
		{Name: "x", Sides: 0},               // no aggressors
		{Name: "x", Sides: 9},               // too many
		{Name: "x", Sides: 1, ExtraOff: -1}, // negative off
		{Name: "x", Sides: 1, Kind: Press},  // press below tRAS
		{Name: "x", Sides: 1, Kind: Combined, TAggON: timing.TRAS},          // burst < 1
		{Name: "x", Sides: 1, DecoyEvery: 8},                                // DecoyEvery without DecoyRows
		{Name: "x", Sides: 1, DecoyRows: 200},                               // decoy pool overflow
		{Name: "x", Sides: 1, Kind: Hammer, TAggON: 7800 * dram.Nanosecond}, // hammer with dwell
		{Name: "x", Sides: 1, Kind: Press, TAggON: timing.TREFW + 1},        // dwell beyond tREFW
		{Name: "x", Sides: 1, Kind: Press, TAggON: 1 << 62},                 // dwell near the clock's range
		{Name: "x", Sides: 1, ExtraOff: timing.TREFW + 1},                   // off time beyond tREFW
		{Name: "x", Sides: 1, ExtraOff: math.MaxInt64},                      // off time overflowing the clock
	}
	good := []Spec{
		{Name: "x", Sides: 1, Kind: Press, TAggON: timing.TREFW},
		{Name: "x", Sides: 1, ExtraOff: timing.TREFW},
	}
	for i, s := range good {
		if err := s.Validate(timing); err != nil {
			t.Errorf("good spec %d rejected: %v", i, err)
		}
	}
	for i, s := range bad {
		if err := s.Validate(timing); err == nil {
			t.Errorf("bad spec %d accepted: %+v", i, s)
		}
	}
}

// TestCharacterizeDeterministic: the playback harness is a pure function
// of (module, scenario, mitigation, config) — byte-identical results on
// repeated runs are what lets scenario shards live in the engine cache.
func TestCharacterizeDeterministic(t *testing.T) {
	mod := testModule(t)
	cfg := testConfig()
	cfg.MaxActs = 30_000
	for _, name := range []string{"ds-hammer", "combined-b4-7.8us", "ds-hammer-decoy"} {
		sc, _ := ByName(name)
		for _, mk := range []MitigationKind{MitNone, MitPARA, MitTRR} {
			a, err := Characterize(mod, sc, mk, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mk, err)
			}
			b, err := Characterize(mod, sc, mk, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mk, err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%s not deterministic:\n%+v\n%+v", name, mk, a, b)
			}
		}
	}
}

// TestPlaybackPrefix: a shorter play is an exact prefix of a longer one —
// same flips at the shared exposure — which is the property the
// min-exposure bisection relies on.
func TestPlaybackPrefix(t *testing.T) {
	mod := testModule(t)
	cfg := testConfig()
	sc, _ := ByName("combined-b4-7.8us")
	site := cfg.sites(sc.Sides)[0]
	play := func(acts int) Outcome {
		mit, err := cfg.NewMitigation(MitPARA, 7)
		if err != nil {
			t.Fatal(err)
		}
		out, err := cfg.playSite(mod, sc, site, mit, acts)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	long := play(8_000)
	short := play(4_000)
	if short.AggActs != 4_000 || long.AggActs != 8_000 {
		t.Fatalf("budgets not honored: short=%d long=%d", short.AggActs, long.AggActs)
	}
	if short.Elapsed >= long.Elapsed {
		t.Fatalf("prefix elapsed %d not below full %d", short.Elapsed, long.Elapsed)
	}
	if short.BitFlips > long.BitFlips {
		t.Fatalf("flips not monotone: %d at 4k, %d at 8k", short.BitFlips, long.BitFlips)
	}
}

// TestCombinedPlaneFinding is the arXiv:2406.13080 acceptance check: the
// interleaved hammer×tAggON patterns reach their first bitflip at lower
// activation counts than the pure RowHammer pattern, and in less attack
// time than the pure RowPress patterns — the combined plane dominates
// both pure axes.
func TestCombinedPlaneFinding(t *testing.T) {
	mod := testModule(t)
	cfg := testConfig()
	get := func(name string) Result {
		sc, ok := ByName(name)
		if !ok {
			t.Fatalf("scenario %s missing", name)
		}
		r, err := Characterize(mod, sc, MitNone, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !r.FlipFound {
			t.Fatalf("%s: no flips within budget", name)
		}
		return r
	}
	hammer := get("ds-hammer")
	press := get("ds-press-7.8us")
	for _, name := range []string{"combined-b2-636ns", "combined-b4-7.8us"} {
		combined := get(name)
		if combined.MinActs >= hammer.MinActs {
			t.Errorf("%s needs %d ACs, pure ds-hammer %d — interleaving should flip at lower activation counts",
				name, combined.MinActs, hammer.MinActs)
		}
	}
	fast := get("combined-b2-636ns")
	if fast.MinTime >= press.MinTime {
		t.Errorf("combined-b2-636ns takes %s, pure ds-press-7.8us %s — interleaving should flip in less attack time",
			dram.FormatTime(fast.MinTime), dram.FormatTime(press.MinTime))
	}
	// And a single activation at the combined dwell (pure RowPress at
	// this row-open time) flips nothing: the plane point is reachable by
	// neither pure pattern alone.
	sc, _ := ByName("ds-press-7.8us")
	one := cfg
	one.MaxActs = 2
	r, err := Characterize(mod, sc, MitNone, one)
	if err != nil {
		t.Fatal(err)
	}
	if r.BitFlips != 0 {
		t.Fatalf("two dwells at 7.8us should not flip, got %d", r.BitFlips)
	}
}

// TestImPressStopsPressScenarios is the mitigation acceptance check: on
// press-heavy scenarios ImPress measurably reduces flips versus None
// (here: to zero), where the unweighted Graphene tracker at the same
// threshold misses them, and at far lower overhead than TRR's
// refresh-everything-recent behaviour.
func TestImPressStopsPressScenarios(t *testing.T) {
	mod := testModule(t)
	cfg := testConfig()
	for _, name := range []string{"ds-press-7.8us", "ss-press-70us", "combined-b4-70us"} {
		sc, _ := ByName(name)
		eval := func(mk MitigationKind) Result {
			r, err := Evaluate(mod, sc, mk, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mk, err)
			}
			return r
		}
		none, graphene, impress, trr := eval(MitNone), eval(MitGraphene), eval(MitImPress), eval(MitTRR)
		if none.BitFlips == 0 {
			t.Fatalf("%s: baseline produced no flips, comparison is vacuous", name)
		}
		if impress.BitFlips >= none.BitFlips {
			t.Errorf("%s: impress %d flips vs none %d — no measurable reduction",
				name, impress.BitFlips, none.BitFlips)
		}
		if graphene.BitFlips != none.BitFlips {
			t.Errorf("%s: unweighted graphene changed flips (%d vs %d) — press damage should stay under its counter",
				name, graphene.BitFlips, none.BitFlips)
		}
		if impress.RefreshOverhead >= trr.RefreshOverhead {
			t.Errorf("%s: impress overhead %.2f not below TRR's %.2f",
				name, impress.RefreshOverhead, trr.RefreshOverhead)
		}
	}
}

// TestDecoyBypassesTRR: the REF-synchronized decoy burst evicts the real
// aggressors from the TRR sampler, so the decorated pattern flips under
// TRR like the unmitigated baseline, while the undecorated pattern is
// fully stopped.
func TestDecoyBypassesTRR(t *testing.T) {
	mod := testModule(t)
	cfg := testConfig()
	eval := func(name string, mk MitigationKind) Result {
		sc, _ := ByName(name)
		r, err := Evaluate(mod, sc, mk, cfg)
		if err != nil {
			t.Fatalf("%s/%s: %v", name, mk, err)
		}
		return r
	}
	plain := eval("ds-hammer", MitTRR)
	if plain.BitFlips != 0 {
		t.Fatalf("TRR should stop undecorated ds-hammer, got %d flips", plain.BitFlips)
	}
	decoy := eval("ds-hammer-decoy", MitTRR)
	baseline := eval("ds-hammer-decoy", MitNone)
	if baseline.BitFlips == 0 {
		t.Fatal("decoy baseline produced no flips, bypass check is vacuous")
	}
	if decoy.BitFlips == 0 {
		t.Fatal("REF-synced decoys failed to bypass the TRR sampler")
	}
	if decoy.BitFlips != baseline.BitFlips {
		t.Errorf("bypassed TRR: %d flips vs unmitigated %d", decoy.BitFlips, baseline.BitFlips)
	}
}

// TestMatrixRenderings: the text table lists every scenario; the CSV
// round-trips through encoding/csv with one record per scenario.
func TestMatrixRenderings(t *testing.T) {
	text := MatrixText()
	for _, name := range Names() {
		if !strings.Contains(text, name) {
			t.Errorf("MatrixText missing %s", name)
		}
	}
	recs, err := csv.NewReader(strings.NewReader(MatrixCSV())).ReadAll()
	if err != nil {
		t.Fatalf("MatrixCSV does not parse: %v", err)
	}
	if len(recs) != len(Catalog())+1 {
		t.Fatalf("CSV has %d records, want %d", len(recs), len(Catalog())+1)
	}
	for i, s := range Catalog() {
		if recs[i+1][0] != s.Name {
			t.Errorf("CSV row %d names %q, want %q", i+1, recs[i+1][0], s.Name)
		}
	}
}

// BenchmarkScenarioPlayback measures the playback hot path: one full
// budget play of the flagship combined pattern, unmitigated and under
// ImPress.
func BenchmarkScenarioPlayback(b *testing.B) {
	mod, _ := chipgen.ByID("S0")
	cfg := DefaultConfig()
	cfg.Sites = 1
	cfg.MaxActs = 50_000
	sc, _ := ByName("combined-b4-7.8us")
	for _, mk := range []MitigationKind{MitNone, MitImPress} {
		b.Run(string(mk), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Evaluate(mod, sc, mk, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCatalogIsIsolatedCopy: the catalog is built once per process, so
// Catalog and Names must hand out the caller's own slices.
func TestCatalogIsIsolatedCopy(t *testing.T) {
	want, _ := ByName("ds-hammer")
	cat := Catalog()
	for i := range cat {
		if cat[i].Name == "ds-hammer" {
			cat[i].Name, cat[i].Sides = "mutated", 7
		}
	}
	Names()[1] = "mutated"

	if got, ok := ByName("ds-hammer"); !ok || got != want {
		t.Errorf("ByName(ds-hammer) after mutation = %+v, %v; want %+v", got, ok, want)
	}
	if _, ok := ByName("mutated"); ok {
		t.Error("ByName found a name written into a returned copy")
	}
	if got := Catalog()[1]; got != want {
		t.Errorf("Catalog()[1] after mutation = %+v, want %+v", got, want)
	}
	if got := Names()[1]; got != "ds-hammer" {
		t.Errorf("Names()[1] after mutation = %q, want ds-hammer", got)
	}
}
