package attack

import (
	"testing"

	"repro/internal/dram"
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
