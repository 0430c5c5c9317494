package characterize

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bender"
	"repro/internal/chipgen"
	"repro/internal/dram"
)

// These differential tests pin the replay-free BER/ONOFF/repeatability
// conversions bit-identical to the per-command reference paths below,
// threading state across whole measurement sequences (single probes are
// pinned by TestProberMatchesCommandPath).

// MeasureBER hammers the site with as many activations as fit in the time
// budget at the given on/extra-off times and reports the bit error rate
// over the distance-1 victim rows, repeated over trials (max taken).
//
// This is the per-command reference path: the differential tests pin the
// replay-free prober conversion (measureBERProbed) bit-identical to it;
// the experiments themselves run through BERGrid/ONOFFSweep on the prober.
func MeasureBER(b *bender.Bench, s site, onTime, extraOff dram.TimePS, cfg Config) (BERResult, error) {
	slot := onTime + b.Mod.Timing.TRP + extraOff
	count := maxActivations(cfg.TimeBudget, slot, len(s.aggressors))
	bitsPerRow := float64(b.Mod.Geo.BitsPerRow())

	res := BERResult{
		TAggON:  onTime,
		TAggOFF: b.Mod.Timing.TRP + extraOff,
		Count:   count,
	}
	var bers []float64
	for trial := 1; trial <= cfg.Trials; trial++ {
		b.SetTrial(uint64(trial))
		if err := s.prepare(b, cfg.Pattern); err != nil {
			return BERResult{}, err
		}
		if err := s.hammer(b, count, onTime, extraOff); err != nil {
			return BERResult{}, err
		}
		flips, err := s.check(b, cfg.Pattern)
		if err != nil {
			return BERResult{}, err
		}
		res.AllFlips += len(flips)
		// Per-victim-row BER; the paper reports the per-row fraction.
		perRow := make(map[int]int)
		for _, f := range flips {
			perRow[f.LogicalRow]++
		}
		// Accumulate per-row BERs in row order: MeanBER is a float sum
		// over bers, and float addition is not associative, so map
		// iteration order would leak into the reported value.
		rows := make([]int, 0, len(perRow))
		for r := range perRow {
			rows = append(rows, r)
		}
		sort.Ints(rows)
		for _, r := range rows {
			bers = append(bers, float64(perRow[r])/bitsPerRow)
		}
		if len(perRow) == 0 {
			bers = append(bers, 0)
		}
	}
	b.SetTrial(0)
	for _, v := range bers {
		if v > res.MaxBER {
			res.MaxBER = v
		}
		res.MeanBER += v
	}
	res.MeanBER /= float64(len(bers))
	return res, nil
}

// MeasureBERAt measures BER for the access pattern anchored at one tested
// location (public wrapper over the site machinery; per-command
// reference path, like MeasureBER).
func MeasureBERAt(b *bender.Bench, loc int, onTime, extraOff dram.TimePS, cfg Config) (BERResult, error) {
	return MeasureBER(b, siteFor(loc, cfg.Sided), onTime, extraOff, cfg)
}

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
