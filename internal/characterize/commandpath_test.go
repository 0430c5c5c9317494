package characterize

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bender"
	"repro/internal/chipgen"
	"repro/internal/dram"
)

// The command-path reference: the §4.1 measurement loop executed as real
// module commands — InitRow fills, a HammerBatch loop, FetchRow reads —
// in physical rows, with the bench clock advancing as the command stream
// does. Production runs every flow on the replay-free prober (probe.go);
// the differential tests here, in probe_test.go and in ber_replay_test.go
// hold the prober bit-identical to this reference.

// refInitRow fills a row with the byte value, resetting its disturbance
// state (bulk initialization, outside the measured commands).
func refInitRow(b *bender.Bench, row int, fill byte) error {
	if err := b.Mod.InitRow(b.Now(), b.Bank(), row, fill); err != nil {
		return err
	}
	b.Advance(dram.Microsecond)
	return nil
}

// refFetchRow activates a row (materializing any pending disturbance) and
// returns its contents.
func refFetchRow(b *bender.Bench, row int) ([]byte, error) {
	data, end, err := b.Mod.FetchRow(b.Now(), b.Bank(), row)
	if err != nil {
		return nil, err
	}
	b.Advance(end - b.Now())
	return data, nil
}

// refHammer runs count activations round-robin over the aggressor rows.
func refHammer(b *bender.Bench, rows []int, count int, onTime, extraOff dram.TimePS) error {
	end, err := b.Mod.HammerBatch(b.Now(), dram.HammerSpec{
		Bank: b.Bank(), Rows: rows, Count: count, OnTime: onTime, ExtraOff: extraOff,
	})
	if err != nil {
		return err
	}
	b.Advance(end - b.Now())
	return nil
}

// refCheckRow fetches a row and diffs it bit by bit against the expected
// fill byte.
func refCheckRow(b *bender.Bench, row int, expect byte) ([]bender.Flip, error) {
	data, err := refFetchRow(b, row)
	if err != nil {
		return nil, err
	}
	var flips []bender.Flip
	for i, got := range data {
		for bit := uint8(0); bit < 8; bit++ {
			if (got^expect)&(1<<bit) != 0 {
				flips = append(flips, bender.Flip{LogicalRow: row, Byte: i, Bit: bit, From: expect&(1<<bit) != 0})
			}
		}
	}
	return flips, nil
}

// prepare writes the data pattern into the site's rows, victims first.
func (s site) prepare(b *bender.Bench, p dram.DataPattern) error {
	for _, v := range s.victims {
		if err := refInitRow(b, v, p.VictimByte()); err != nil {
			return err
		}
	}
	for _, a := range s.aggressors {
		if err := refInitRow(b, a, p.AggressorByte()); err != nil {
			return err
		}
	}
	return nil
}

// hammer runs count total activations over the site's aggressors.
func (s site) hammer(b *bender.Bench, count int, onTime, extraOff dram.TimePS) error {
	return refHammer(b, s.aggressors, count, onTime, extraOff)
}

// check reads every victim in order and returns all bitflips.
func (s site) check(b *bender.Bench, p dram.DataPattern) ([]bender.Flip, error) {
	var all []bender.Flip
	for _, v := range s.victims {
		flips, err := refCheckRow(b, v, p.VictimByte())
		if err != nil {
			return nil, err
		}
		all = append(all, flips...)
	}
	return all, nil
}

// refMaxACFlips is MaxACFlips on the command path.
func refMaxACFlips(b *bender.Bench, locs []int, onTime dram.TimePS, cfg Config) ([]bender.Flip, error) {
	slot := onTime + b.Mod.Timing.TRP
	var all []bender.Flip
	for _, loc := range locs {
		s := siteFor(loc, cfg.Sided)
		if err := s.prepare(b, cfg.Pattern); err != nil {
			return nil, err
		}
		if err := s.hammer(b, maxActivations(cfg.TimeBudget, slot, len(s.aggressors)), onTime, 0); err != nil {
			return nil, err
		}
		flips, err := s.check(b, cfg.Pattern)
		if err != nil {
			return nil, err
		}
		all = append(all, flips...)
	}
	return all, nil
}

// refRetentionTest is RetentionTest on the command path.
func refRetentionTest(b *bender.Bench, locs []int, cfg Config, holdSeconds float64) (map[CellKey]bool, error) {
	if err := b.SetTemperature(80); err != nil {
		return nil, err
	}
	sites := make([]site, len(locs))
	for i, loc := range locs {
		sites[i] = siteFor(loc, cfg.Sided)
		if err := sites[i].prepare(b, cfg.Pattern); err != nil {
			return nil, err
		}
	}
	b.Advance(dram.FromSeconds(holdSeconds))
	set := make(map[CellKey]bool)
	for _, s := range sites {
		flips, err := s.check(b, cfg.Pattern)
		if err != nil {
			return nil, err
		}
		AddCells(set, flips)
	}
	return set, nil
}

// benchPair builds two identically-built fresh benches of one module.
func benchPair(t *testing.T, spec chipgen.ModuleSpec, cfg Config, tempC float64) (*bender.Bench, *bender.Bench) {
	t.Helper()
	ref, err := NewBench(spec, cfg, tempC)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewBench(spec, cfg, tempC)
	if err != nil {
		t.Fatal(err)
	}
	return ref, got
}

// TestOverlapFlowsMatchCommandPath: MaxACFlips and RetentionTest, which
// run on the prober, return the command-path reference's flips — same
// cells, same order — and leave the bench clock where it leaves it, on
// fresh benches of a true-cell (S0, S3) and a mixed-cell (M3) die, single-
// and double-sided, from tRAS to the extreme 30 ms dwell.
func TestOverlapFlowsMatchCommandPath(t *testing.T) {
	taggons := []dram.TimePS{36 * dram.Nanosecond, 7800 * dram.Nanosecond, 70200 * dram.Nanosecond, 30 * dram.Millisecond}
	maxFlips, retCells := 0, 0
	for _, id := range []string{"S0", "S3", "M3"} {
		spec := mustSpec(t, id)
		for _, sided := range []Sidedness{SingleSided, DoubleSided} {
			cfg := quickConfig(3)
			cfg.Sided = sided
			locs := testedLocations(cfg.Geometry, cfg.RowsToTest)
			for _, on := range taggons {
				where := fmt.Sprintf("%s %s %s", id, sided, dram.FormatTime(on))
				bRef, bGot := benchPair(t, spec, cfg, 80)
				want, err := refMaxACFlips(bRef, locs, on, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := MaxACFlips(bGot, locs, on, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: MaxACFlips returned %d flips, the command path %d (or they differ)", where, len(got), len(want))
				}
				if bRef.Now() != bGot.Now() {
					t.Errorf("%s: MaxACFlips bench clock %d, command path %d", where, bGot.Now(), bRef.Now())
				}
				maxFlips += len(want)
			}
			bRef, bGot := benchPair(t, spec, cfg, 50)
			want, err := refRetentionTest(bRef, locs, cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RetentionTest(bGot, locs, cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %s: RetentionTest found %d cells, the command path %d (or they differ)", id, sided, len(got), len(want))
			}
			if bRef.Now() != bGot.Now() {
				t.Errorf("%s %s: RetentionTest bench clock %d, command path %d", id, sided, bGot.Now(), bRef.Now())
			}
			retCells += len(want)
		}
	}
	if maxFlips == 0 || retCells == 0 {
		t.Fatalf("vacuous comparison: %d @ACmax flips, %d retention cells", maxFlips, retCells)
	}
}

// newPhysicsBench builds a small-geometry bench at 50 °C for the command-
// path physics checks below.
func newPhysicsBench(t *testing.T, id string) *bender.Bench {
	t.Helper()
	geo := dram.Geometry{Banks: 2, RowsPerBank: 1024, RowBytes: 8192}
	b, err := bender.New(mustSpec(t, id), geo, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCommandPathInitFetchRoundTrip(t *testing.T) {
	b := newPhysicsBench(t, "S0")
	if err := refInitRow(b, 100, 0x55); err != nil {
		t.Fatal(err)
	}
	data, err := refFetchRow(b, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if v != 0x55 {
			t.Fatalf("byte %d = %#x", i, v)
		}
	}
}

func TestCommandPathCheckRowNoFlips(t *testing.T) {
	b := newPhysicsBench(t, "S0")
	if err := refInitRow(b, 50, 0xAA); err != nil {
		t.Fatal(err)
	}
	flips, err := refCheckRow(b, 50, 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 0 {
		t.Fatalf("unexpected flips: %d", len(flips))
	}
}

func TestCommandPathHammerInducesFlips(t *testing.T) {
	b := newPhysicsBench(t, "S3") // weak 8Gb D-die
	const agg = 500
	victims := []int{agg - 1, agg + 1}
	for _, v := range victims {
		if err := refInitRow(b, v, 0x00); err != nil {
			t.Fatal(err)
		}
	}
	if err := refInitRow(b, agg, 0xFF); err != nil {
		t.Fatal(err)
	}
	if err := refHammer(b, []int{agg}, 800_000, 36*dram.Nanosecond, 0); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range victims {
		flips, err := refCheckRow(b, v, 0x00)
		if err != nil {
			t.Fatal(err)
		}
		total += len(flips)
	}
	if total == 0 {
		t.Fatal("800K activations on D-die produced no flips")
	}
}

func TestCommandPathPressFlipsWithFewActivations(t *testing.T) {
	b := newPhysicsBench(t, "S3")
	total := 0
	// ~55 ms of 7.8 µs activations per aggressor: rows whose weakest press
	// cell sits below that exposure flip (the D-die average is ~39 ms).
	for agg := 100; agg <= 900; agg += 100 {
		victims := []int{agg - 1, agg + 1}
		for _, v := range victims {
			if err := refInitRow(b, v, 0xFF); err != nil {
				t.Fatal(err)
			}
		}
		if err := refInitRow(b, agg, 0xAA); err != nil {
			t.Fatal(err)
		}
		if err := refHammer(b, []int{agg}, 7000, 7800*dram.Nanosecond, 0); err != nil {
			t.Fatal(err)
		}
		for _, v := range victims {
			flips, err := refCheckRow(b, v, 0xFF)
			if err != nil {
				t.Fatal(err)
			}
			total += len(flips)
			for _, f := range flips {
				if !f.From {
					t.Fatalf("press flip in wrong direction at row %d byte %d", f.LogicalRow, f.Byte)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("RowPress at 7.8us x 7000 activations produced no flips on D-die")
	}
}
