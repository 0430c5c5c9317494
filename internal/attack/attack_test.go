package attack

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"repro/internal/dram"
	"repro/internal/stats"
	"repro/internal/sysarch"
)

func demoSystem(t *testing.T) *sysarch.System {
	t.Helper()
	geo := dram.Geometry{Banks: 4, RowsPerBank: 4096, RowBytes: 8192}
	return sysarch.NewDemoSystem(geo, 0xC0FFEE)
}

func run(t *testing.T, sys *sysarch.System, acts, reads, victims int) Result {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NumAggrActs = acts
	cfg.NumReads = reads
	cfg.Victims = victims
	r, err := Run(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRowPressBeatsRowHammer covers Obsv. 19/20: at NUM_AGGR_ACTS where
// conventional RowHammer (NUM_READS = 1) cannot flip anything, the
// RowPress pattern (NUM_READS = 16) flips many rows.
func TestRowPressBeatsRowHammer(t *testing.T) {
	sys := demoSystem(t)
	for _, acts := range []int{2, 3} {
		rh := run(t, sys, acts, 1, 48)
		rp := run(t, sys, acts, 16, 48)
		if rh.Bitflips != 0 {
			t.Errorf("acts=%d: RowHammer flipped %d bits; the TRR-protected system should resist it", acts, rh.Bitflips)
		}
		if rp.Bitflips == 0 {
			t.Errorf("acts=%d: RowPress (16 reads) flipped nothing", acts)
		}
	}
}

// TestNonMonotonicInReads covers Obsv. 21: flips rise with NUM_READS up to
// a peak and then collapse once the pattern no longer fits a tREFI window.
func TestNonMonotonicInReads(t *testing.T) {
	sys := demoSystem(t)
	counts := map[int]int{}
	for _, reads := range []int{1, 16, 128} {
		counts[reads] = run(t, sys, 4, reads, 48).RowsWithFlips
	}
	if !(counts[16] > counts[1]) {
		t.Errorf("rows with flips should rise from reads=1 (%d) to 16 (%d)", counts[1], counts[16])
	}
	if !(counts[16] > counts[128]) {
		t.Errorf("rows with flips should fall from reads=16 (%d) to 128 (%d)", counts[16], counts[128])
	}
}

// TestSyncFlag: the pattern fits a tREFI window at small NUM_READS and
// stops fitting at large NUM_READS.
func TestSyncFlag(t *testing.T) {
	sys := demoSystem(t)
	if r := run(t, sys, 4, 8, 2); !r.Synced {
		t.Error("acts=4 reads=8 should fit in tREFI")
	}
	if r := run(t, sys, 4, 128, 2); r.Synced {
		t.Error("acts=4 reads=128 cannot fit in tREFI")
	}
}

// TestAlgorithm2MoreEffective covers Appendix G (Obsv. 23): interleaving
// flushes with reads keeps the aggressor open longer and flips more bits
// at the same configuration.
func TestAlgorithm2MoreEffective(t *testing.T) {
	sys := demoSystem(t)
	cfg := DefaultConfig()
	cfg.NumAggrActs = 4
	cfg.NumReads = 8
	cfg.Victims = 48
	a1, err := Run(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Variant = Algorithm2
	a2, err := Run(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Bitflips <= a1.Bitflips {
		t.Errorf("Algorithm 2 (%d flips) should beat Algorithm 1 (%d flips)", a2.Bitflips, a1.Bitflips)
	}
}

func TestRunGridSkipsOversizedPatterns(t *testing.T) {
	sys := demoSystem(t)
	cfg := DefaultConfig()
	cfg.Victims = 2
	cfg.Windows = 64
	grid, err := RunGrid(sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range grid.Cells {
		if c.NumAggrActs == 4 && c.NumReads > 48 {
			t.Errorf("grid contains acts=4 reads=%d (paper skips >48)", c.NumReads)
		}
		if c.NumAggrActs == 3 && c.NumReads > 80 {
			t.Errorf("grid contains acts=3 reads=%d (paper skips >80)", c.NumReads)
		}
	}
	if len(grid.Cells) != 10+9+7 {
		t.Errorf("grid has %d cells, want 26", len(grid.Cells))
	}
}

func TestConfigValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.NumReads = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero reads should fail")
	}
	bad = DefaultConfig()
	bad.Victims = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero victims should fail")
	}
}

// TestProbeRowLatencies covers Fig. 24 (§6.3): the first cache-block
// access of a freshly closed row is ~30 cycles slower than the rest.
func TestProbeRowLatencies(t *testing.T) {
	sys := demoSystem(t)
	lat, err := sys.ProbeRowLatencies(1, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(lat) != sys.Mod.Geo.BlocksPerRow() {
		t.Fatalf("%d latencies", len(lat))
	}
	first := lat[0]
	var rest float64
	for _, l := range lat[1:] {
		rest += float64(l)
	}
	rest /= float64(len(lat) - 1)
	gap := float64(first) - rest
	if gap < 20 || gap > 40 {
		t.Errorf("first-vs-rest latency gap = %.1f cycles, want ≈30 (Fig. 24)", gap)
	}
}

// TestRowBufferDecouplingStopsRowPress covers §7.2: pinning the electrical
// row-open time at tRAS removes the RowPress lever even though the access
// pattern is unchanged.
func TestRowBufferDecouplingStopsRowPress(t *testing.T) {
	base := demoSystem(t)
	cfg := DefaultConfig()
	cfg.NumAggrActs = 4
	cfg.NumReads = 16
	cfg.Victims = 48
	r1, err := Run(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Bitflips == 0 {
		t.Fatal("baseline attack should flip bits")
	}
	dec := demoSystem(t)
	cfg.RowBufferDecoupled = true
	r2, err := Run(dec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Bitflips != 0 {
		t.Fatalf("decoupled wordline still flipped %d bits", r2.Bitflips)
	}
}

// TestAdaptivePolicyFacilitates covers the §6.3 conclusion: a speculative
// row-hold policy gives the attacker extra tAggON at the same NUM_READS.
func TestAdaptivePolicyFacilitates(t *testing.T) {
	base := demoSystem(t)
	cfg := DefaultConfig()
	cfg.NumAggrActs = 4
	cfg.NumReads = 8
	cfg.Victims = 48
	r0, err := Run(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := demoSystem(t)
	cfg.AdaptiveHoldNs = 400
	r1, err := Run(adaptive, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TAggON <= r0.TAggON {
		t.Fatal("adaptive hold should extend tAggON")
	}
	if r1.Bitflips <= r0.Bitflips {
		t.Errorf("adaptive policy should amplify the attack: %d vs %d flips", r1.Bitflips, r0.Bitflips)
	}
}

// refRunVictim is runVictim's per-window reference: one HammerBatch per
// iteration, the REF phase drawn after each, and the TRR refreshes of a
// caught iteration issued in place.
func refRunVictim(sys *sysarch.System, cfg Config, tm timing, bank, victim int, salt uint64) (int, error) {
	mod := sys.Mod
	t := mod.Timing
	agg1, agg2 := victim-1, victim+1

	now := sys.Now()
	if err := mod.InitRow(now, bank, victim, 0x55); err != nil {
		return 0, err
	}
	for _, a := range []int{agg1, agg2} {
		if err := mod.InitRow(now, bank, a, 0xAA); err != nil {
			return 0, err
		}
	}

	windowsPerIter := int((tm.iterTime + t.TREFI - 1) / t.TREFI)
	if windowsPerIter < 1 {
		windowsPerIter = 1
	}
	acts := 2 * cfg.NumAggrActs
	for w := 0; w < cfg.Windows; w += windowsPerIter {
		end, err := mod.HammerBatch(now, dram.HammerSpec{
			Bank: bank, Rows: []int{agg1, agg2}, Count: acts, OnTime: tm.aggON,
		})
		if err != nil {
			return 0, err
		}
		now = end + tm.flushGap + tm.dummyTime
		if tm.iterTime > t.TREFI {
			phase := dram.TimePS(stats.UnitFromHash(stats.Combine(salt, uint64(w))) * float64(tm.iterTime))
			if phase < tm.caughtCut {
				for _, a := range []int{agg1, agg2} {
					for d := -2; d <= 2; d++ {
						if d == 0 {
							continue
						}
						r := a + d
						if r >= 0 && r < mod.Geo.RowsPerBank {
							if err := mod.RestoreRow(now, bank, r); err != nil {
								return 0, err
							}
						}
					}
				}
			}
		}
		now += dram.TimePS(windowsPerIter)*t.TREFI - tm.iterTime + t.TRFC
	}
	sys.Advance(now - sys.Now())

	data, end, err := mod.FetchRow(now, bank, victim)
	if err != nil {
		return 0, err
	}
	sys.Advance(end - sys.Now())
	flips := 0
	for _, b := range data {
		flips += popcount8(b ^ 0x55)
	}
	return flips, nil
}

// goldenSystem is the demonstration system the core experiments build
// for a seed.
func goldenSystem(seed uint64) *sysarch.System {
	geo := dram.Geometry{Banks: 4, RowsPerBank: 4096, RowBytes: 8192}
	return sysarch.NewDemoSystem(geo, 0xDE40^seed)
}

// checkFoldedMatchesReference plays cfgs in order on two copies of the
// seed's system, every victim through runVictim on one and refRunVictim
// on the other, and requires equal per-victim flip counts and, after
// every cell, equal module state: each row's contents, exposure bits,
// restore and PRE times, plus the counters and both clocks.
func checkFoldedMatchesReference(t *testing.T, seed uint64, cfgs []Config) {
	t.Helper()
	fold, ref := goldenSystem(seed), goldenSystem(seed)
	for _, cfg := range cfgs {
		name := fmt.Sprintf("seed=%d %v acts=%d reads=%d hold=%d decoupled=%v",
			seed, cfg.Variant, cfg.NumAggrActs, cfg.NumReads, cfg.AdaptiveHoldNs, cfg.RowBufferDecoupled)
		tm := cfg.timing(fold.Mod.Timing, fold.TRREntries)
		for v, victim := range victimRows(fold.Mod.Geo.RowsPerBank, cfg.Victims) {
			got, err := runVictim(fold, cfg, tm, 0, victim, uint64(v))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := refRunVictim(ref, cfg, tm, 0, victim, uint64(v))
			if err != nil {
				t.Fatalf("%s: reference: %v", name, err)
			}
			if got != want {
				t.Errorf("%s victim %d: %d flips, reference %d", name, victim, got, want)
			}
		}
		if fold.Now() != ref.Now() {
			t.Fatalf("%s: system clock %d, reference %d", name, fold.Now(), ref.Now())
		}
		if err := sameModuleState(fold.Mod, ref.Mod); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// sameModuleState reports the first difference between two modules'
// stored state, comparing exposures bit for bit.
func sameModuleState(a, b *dram.Module) error {
	if a.Counters() != b.Counters() || a.Now() != b.Now() {
		return fmt.Errorf("counters/clock %+v@%d, reference %+v@%d", a.Counters(), a.Now(), b.Counters(), b.Now())
	}
	bits := func(e dram.Exposure) [5]uint64 {
		return [5]uint64{math.Float64bits(e.HammerAbove), math.Float64bits(e.HammerBelow),
			math.Float64bits(e.PressAbove), math.Float64bits(e.PressBelow), math.Float64bits(e.Retention)}
	}
	for bank := 0; bank < a.Geo.Banks; bank++ {
		for row := 0; row < a.Geo.RowsPerBank; row++ {
			x, y := a.View(bank, row), b.View(bank, row)
			if !bytes.Equal(x.Data, y.Data) || bits(x.Exp) != bits(y.Exp) ||
				x.LastRestore != y.LastRestore || x.LastPre != y.LastPre || x.Precharged != y.Precharged {
				return fmt.Errorf("bank %d row %d: %+v, reference %+v", bank, row, x, y)
			}
		}
	}
	return nil
}

// TestFoldedRunMatchesPerWindowReference holds the folded attack against
// the per-window loop over every Fig. 23 cell in both variants (RunGrid's
// order on one system), the §6.3 adaptive holds and the §7.2 decoupled
// configuration, at the golden victim count and seeds 1 and 3. The grid
// covers synchronized victims, folded into one run, and unsynchronized
// ones with TRR catches.
func TestFoldedRunMatchesPerWindowReference(t *testing.T) {
	base := DefaultConfig()
	base.Victims = 8
	for _, seed := range []uint64{1, 3} {
		for _, variant := range []Variant{Algorithm1, Algorithm2} {
			cfg := base
			cfg.Variant = variant
			t.Run(fmt.Sprintf("seed=%d/%v", seed, variant), func(t *testing.T) {
				t.Parallel()
				checkFoldedMatchesReference(t, seed, gridConfigs(cfg))
			})
		}
		t.Run(fmt.Sprintf("seed=%d/sec63+sec72", seed), func(t *testing.T) {
			t.Parallel()
			for _, hold := range []int{0, 250, 500} {
				cfg := base
				cfg.NumAggrActs, cfg.NumReads, cfg.AdaptiveHoldNs = 4, 8, hold
				checkFoldedMatchesReference(t, seed, []Config{cfg})
			}
			cfg := base
			cfg.NumAggrActs, cfg.NumReads, cfg.RowBufferDecoupled = 4, 16, true
			checkFoldedMatchesReference(t, seed, []Config{cfg})
		})
	}
}
