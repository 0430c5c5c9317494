package characterize

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chipgen"
	"repro/internal/dram"
)

// These tests pin the per-location column decomposition — the one sweep
// order production runs, as the split experiments' sub-shards and as
// the serial ACminSweep/TAggONminSweep wrappers — bit-identical to the
// tAggON-major sweeps the golden reports were first generated from,
// kept here as refACminSweep/refTAggONminSweep. They are the unit-level
// half of the equivalence argument; the golden suite holds the report
// level.

// refACminSweep is the tAggON-major ACmin sweep: tAggON outer, location
// inner, one prober threaded through every search.
func refACminSweep(spec chipgen.ModuleSpec, cfg Config, tempC float64, tAggONs []dram.TimePS) ([]SweepPoint, error) {
	b, err := NewBench(spec, cfg, tempC)
	if err != nil {
		return nil, err
	}
	p := newProber(b, cfg)
	locs := testedLocations(cfg.Geometry, cfg.RowsToTest)
	points := make([]SweepPoint, 0, len(tAggONs))
	for _, on := range tAggONs {
		pt := SweepPoint{TAggON: on}
		for _, loc := range locs {
			r, err := searchACminTrials(p, siteFor(loc, cfg.Sided), on)
			if err != nil {
				return nil, err
			}
			pt.Results = append(pt.Results, r)
		}
		points = append(points, pt)
	}
	return points, nil
}

// refTAggONminSweep is the ac-major tAggONmin sweep, the counterpart of
// refACminSweep.
func refTAggONminSweep(spec chipgen.ModuleSpec, cfg Config, tempC float64, acs []int) ([]TAggONminPoint, error) {
	b, err := NewBench(spec, cfg, tempC)
	if err != nil {
		return nil, err
	}
	p := newProber(b, cfg)
	locs := testedLocations(cfg.Geometry, cfg.RowsToTest)
	points := make([]TAggONminPoint, 0, len(acs))
	for _, ac := range acs {
		pt := TAggONminPoint{AC: ac}
		for _, loc := range locs {
			r, err := searchTAggONminTrials(p, siteFor(loc, cfg.Sided), ac)
			if err != nil {
				return nil, err
			}
			pt.Results = append(pt.Results, r)
		}
		points = append(points, pt)
	}
	return points, nil
}

var columnTAggONs = []dram.TimePS{
	36 * dram.Nanosecond,
	7800 * dram.Nanosecond,
	300 * dram.Microsecond,
	30 * dram.Millisecond,
}

// TestSweepWrappersMatchReference runs the serial wrappers against the
// reference order on the lattices production runs them with: the
// summary headline lattice at 50/80 °C, table5's ACmin lattices
// ({36 ns, 7.8 µs, 70.2 µs} at 50 °C, {7.8 µs} at 80 °C), and the
// tAggONmin lattices ({1} at 50/80 °C, StandardACs). Each runs single-
// and double-sided, on a true-cell die (S3) and a mixed true/anti-cell
// die (M3), at one tested location and at several.
func TestSweepWrappersMatchReference(t *testing.T) {
	summary := []dram.TimePS{36 * dram.Nanosecond, 7800 * dram.Nanosecond, 70200 * dram.Nanosecond, 30 * dram.Millisecond}
	acLattices := []struct {
		tempC   float64
		tAggONs []dram.TimePS
	}{
		{50, summary},
		{80, summary},
		{50, summary[:3]},
		{80, summary[1:2]},
	}
	taggonLattices := []struct {
		tempC float64
		acs   []int
	}{
		{50, []int{1}},
		{80, []int{1}},
		{50, StandardACs},
	}
	for _, id := range []string{"S3", "M3"} {
		spec := mustSpec(t, id)
		if tcf := spec.Die.Params.TrueCellFraction; (id == "M3") == (tcf == 1) {
			t.Fatalf("%s: true-cell fraction %v breaks the die coverage this test relies on", id, tcf)
		}
		for _, sided := range []Sidedness{SingleSided, DoubleSided} {
			for _, rows := range []int{1, 3} {
				cfg := quickConfig(rows)
				cfg.Sided = sided
				if n := len(testedLocations(cfg.Geometry, rows)); n != rows {
					t.Fatalf("RowsToTest %d picks %d locations", rows, n)
				}
				for _, l := range acLattices {
					name := fmt.Sprintf("%s/%v/rows%d/ACmin%v@%g", id, sided, rows, l.tAggONs, l.tempC)
					want, err := refACminSweep(spec, cfg, l.tempC, l.tAggONs)
					if err != nil {
						t.Fatal(err)
					}
					got, err := ACminSweep(spec, cfg, l.tempC, l.tAggONs)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: ACminSweep diverges from the tAggON-major reference", name)
					}
				}
				for _, l := range taggonLattices {
					name := fmt.Sprintf("%s/%v/rows%d/tAggONmin%v@%g", id, sided, rows, l.acs, l.tempC)
					want, err := refTAggONminSweep(spec, cfg, l.tempC, l.acs)
					if err != nil {
						t.Fatal(err)
					}
					got, err := TAggONminSweep(spec, cfg, l.tempC, l.acs)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s: TAggONminSweep diverges from the ac-major reference", name)
					}
				}
			}
		}
	}
}

func TestACminColumnsMatchSweep(t *testing.T) {
	cfg := quickConfig(6)
	spec := mustSpec(t, "S3")
	want, err := refACminSweep(spec, cfg, 50, columnTAggONs)
	if err != nil {
		t.Fatal(err)
	}
	locs := testedLocations(cfg.Geometry, cfg.RowsToTest)
	if len(locs) < 2 {
		t.Fatalf("want ≥2 tested locations, got %d", len(locs))
	}

	// Per-location partition: one column per site, as the finest split.
	var cols [][]RowResult
	for _, loc := range locs {
		c, err := ACminColumns(spec, cfg, 50, columnTAggONs, []int{loc})
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c...)
	}
	if got := AssembleACminSweep(columnTAggONs, cols); !reflect.DeepEqual(got, want) {
		t.Errorf("per-location columns diverge from the reference sweep:\n got %+v\nwant %+v", got, want)
	}

	// Chunked partition: several sites per column, as the sizing
	// heuristic produces at paper scale.
	chunked, err := ACminColumns(spec, cfg, 50, columnTAggONs, locs[:2])
	if err != nil {
		t.Fatal(err)
	}
	rest, err := ACminColumns(spec, cfg, 50, columnTAggONs, locs[2:])
	if err != nil {
		t.Fatal(err)
	}
	if got := AssembleACminSweep(columnTAggONs, append(chunked, rest...)); !reflect.DeepEqual(got, want) {
		t.Errorf("chunked columns diverge from the reference sweep")
	}
}

// TestACminColumnsSingleLocation: with one tested location the column
// and the tAggON-major order run the same searches in the same order.
func TestACminColumnsSingleLocation(t *testing.T) {
	cfg := quickConfig(1)
	spec := mustSpec(t, "S3")
	want, err := refACminSweep(spec, cfg, 50, columnTAggONs)
	if err != nil {
		t.Fatal(err)
	}
	locs := testedLocations(cfg.Geometry, cfg.RowsToTest)
	if len(locs) != 1 {
		t.Fatalf("want exactly 1 tested location, got %d", len(locs))
	}
	cols, err := ACminColumns(spec, cfg, 50, columnTAggONs, locs)
	if err != nil {
		t.Fatal(err)
	}
	if got := AssembleACminSweep(columnTAggONs, cols); !reflect.DeepEqual(got, want) {
		t.Errorf("single-location column diverges from the reference sweep")
	}
}

func TestTAggONminColumnsMatchSweep(t *testing.T) {
	cfg := quickConfig(5)
	spec := mustSpec(t, "S0")
	acs := []int{1, 10, 100, 1000, 10000}
	want, err := refTAggONminSweep(spec, cfg, 50, acs)
	if err != nil {
		t.Fatal(err)
	}
	locs := testedLocations(cfg.Geometry, cfg.RowsToTest)
	if len(locs) < 2 {
		t.Fatalf("want ≥2 tested locations, got %d", len(locs))
	}
	var cols [][]TAggONminResult
	for _, loc := range locs {
		c, err := TAggONminColumns(spec, cfg, 50, acs, []int{loc})
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c...)
	}
	if got := AssembleTAggONminSweep(acs, cols); !reflect.DeepEqual(got, want) {
		t.Errorf("per-location columns diverge from the ac-major reference sweep")
	}
}

func TestACminColumnsDoubleSided(t *testing.T) {
	cfg := quickConfig(4)
	cfg.Sided = DoubleSided
	spec := mustSpec(t, "H0")
	want, err := refACminSweep(spec, cfg, 80, columnTAggONs)
	if err != nil {
		t.Fatal(err)
	}
	locs := testedLocations(cfg.Geometry, cfg.RowsToTest)
	var cols [][]RowResult
	for _, loc := range locs {
		c, err := ACminColumns(spec, cfg, 80, columnTAggONs, []int{loc})
		if err != nil {
			t.Fatal(err)
		}
		cols = append(cols, c...)
	}
	if got := AssembleACminSweep(columnTAggONs, cols); !reflect.DeepEqual(got, want) {
		t.Errorf("double-sided columns diverge from the reference sweep")
	}
}
