package characterize

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bender"
	"repro/internal/chipgen"
	"repro/internal/dram"
)

// These differential tests pin the replay-free BER/ONOFF/repeatability
// conversions bit-identical to the per-command reference paths below,
// threading state across whole measurement sequences (single probes are
// pinned by TestProberMatchesCommandPath).

// onoffSweepReplay is ONOFFSweep on the per-command path: every trial
// executes the full prepare/hammer/check stream. It is the reference
// implementation for the differential tests.
func onoffSweepReplay(spec chipgen.ModuleSpec, cfg Config, tempC float64) ([]ONOFFPoint, error) {
	b, err := NewBench(spec, cfg, tempC)
	if err != nil {
		return nil, err
	}
	return onoffSweep(cfg, b.Mod.Timing.TRAS, func(s site, onTime, extraOff dram.TimePS) (BERResult, error) {
		return MeasureBER(b, s, onTime, extraOff, cfg)
	})
}

func TestONOFFSweepMatchesReplay(t *testing.T) {
	for _, tc := range []struct {
		id    string
		sided Sidedness
		tempC float64
	}{
		{"S3", SingleSided, 50},
		{"S3", DoubleSided, 80},
		{"H0", SingleSided, 50},
	} {
		cfg := quickConfig(3)
		cfg.Trials = 2
		cfg.Sided = tc.sided
		spec := mustSpec(t, tc.id)
		want, err := onoffSweepReplay(spec, cfg, tc.tempC)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ONOFFSweep(spec, cfg, tc.tempC)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s/%s/%g: replay-free ONOFF sweep diverges from command path:\n got %+v\nwant %+v",
				tc.id, tc.sided, tc.tempC, got, want)
		}
		// Float results must be exactly equal, not approximately: DeepEqual
		// on NaN-free floats above is the bit-identity claim.
		for i := range got {
			if math.IsNaN(got[i].BER.MeanBER) {
				t.Fatalf("NaN MeanBER at point %d", i)
			}
		}
	}
}

// repeatabilityStudyReplay is RepeatabilityStudy on the per-command
// path: every trial executes the full prepare/hammer/check stream.
// It is the reference implementation for the differential tests.
func repeatabilityStudyReplay(spec chipgen.ModuleSpec, cfg Config, tempC float64, tAggONs []dram.TimePS) ([]RepeatabilityResult, error) {
	b, err := NewBench(spec, cfg, tempC)
	if err != nil {
		return nil, err
	}
	return repeatabilityStudy(b, cfg, tAggONs, func(s site, count int, on dram.TimePS) ([]bender.Flip, error) {
		if err := s.prepare(b, cfg.Pattern); err != nil {
			return nil, err
		}
		if err := s.hammer(b, count, on, 0); err != nil {
			return nil, err
		}
		return s.check(b, cfg.Pattern)
	})
}

func TestRepeatabilityStudyMatchesReplay(t *testing.T) {
	cfg := quickConfig(4)
	cfg.Trials = 3
	spec := mustSpec(t, "S3")
	taggons := []dram.TimePS{36 * dram.Nanosecond, 7800 * dram.Nanosecond, 30 * dram.Millisecond}
	want, err := repeatabilityStudyReplay(spec, cfg, 50, taggons)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RepeatabilityStudy(spec, cfg, 50, taggons)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay-free repeatability study diverges from command path:\n got %+v\nwant %+v", got, want)
	}
}

// TestBERGridMatchesCommandPath pins BERGrid (Table 6's replay-free
// path) against the same grid walked with MeasureBERAt on one bench.
func TestBERGridMatchesCommandPath(t *testing.T) {
	cfg := quickConfig(4)
	cfg.Trials = 2
	spec := mustSpec(t, "S0")
	taggons := []dram.TimePS{36 * dram.Nanosecond, 7800 * dram.Nanosecond, 70200 * dram.Nanosecond}
	locs := testedLocations(cfg.Geometry, min(cfg.RowsToTest, 8))

	b, err := NewBench(spec, cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]BERResult, len(taggons))
	for ti, tg := range taggons {
		for _, loc := range locs {
			r, err := MeasureBERAt(b, loc, tg, 0, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[ti] = append(want[ti], r)
		}
	}

	got, err := BERGrid(spec, cfg, 50, taggons, locs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BERGrid diverges from threaded MeasureBERAt:\n got %+v\nwant %+v", got, want)
	}
}
