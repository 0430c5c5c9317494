package characterize

import (
	"math"
	"testing"

	"repro/internal/dram"
	"repro/internal/stats"
)

// TestSearchACminBracketProperty: the reported ACmin actually flips bits,
// and the search honored the 1 % accuracy contract (§4.1).
func TestSearchACminBracketProperty(t *testing.T) {
	cfg := quickConfig(1)
	cfg.Trials = 1
	b, err := NewBench(mustSpec(t, "S3"), cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	on := 7800 * dram.Nanosecond
	for loc := 100; loc <= 1500; loc += 200 {
		s := siteFor(loc, SingleSided)
		r, err := newProber(b, cfg).searchACmin(s, on) // one search, fresh harness
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found {
			continue
		}
		// Re-probe at the reported ACmin: must flip.
		if err := s.prepare(b, cfg.Pattern); err != nil {
			t.Fatal(err)
		}
		if err := s.hammer(b, r.ACmin, on, 0); err != nil {
			t.Fatal(err)
		}
		flips, err := s.check(b, cfg.Pattern)
		if err != nil {
			t.Fatal(err)
		}
		if len(flips) == 0 {
			t.Fatalf("loc %d: reported ACmin %d does not flip", loc, r.ACmin)
		}
		// Probe 5 % below: must not flip (1 % accuracy plus margin).
		lower := int(float64(r.ACmin) * 0.95)
		if lower >= 1 {
			if err := s.prepare(b, cfg.Pattern); err != nil {
				t.Fatal(err)
			}
			if err := s.hammer(b, lower, on, 0); err != nil {
				t.Fatal(err)
			}
			flips, err := s.check(b, cfg.Pattern)
			if err != nil {
				t.Fatal(err)
			}
			if len(flips) > 0 {
				t.Fatalf("loc %d: ACmin %d not minimal (%d flips at %d)", loc, r.ACmin, len(flips), lower)
			}
		}
	}
}

// TestBudgetRespected: no access pattern the searches issue exceeds the
// 60 ms experiment budget (the paper bounds every test within the refresh
// window to exclude retention effects).
func TestBudgetRespected(t *testing.T) {
	cfg := DefaultConfig()
	tm := dram.DDR4()
	for _, on := range StandardTAggONs {
		slot := on + tm.TRP
		maxAC := maxActivations(cfg.TimeBudget, slot, 1)
		if d := dram.TimePS(maxAC) * slot; d > cfg.TimeBudget+slot {
			t.Errorf("tAggON %s: pattern duration %s exceeds budget", dram.FormatTime(on), dram.FormatTime(d))
		}
	}
}

// TestACminMonotoneInTAggON: per tested row, ACmin never increases as
// tAggON grows (more press damage per activation can only help).
func TestACminMonotoneInTAggON(t *testing.T) {
	cfg := quickConfig(10)
	cfg.Trials = 1
	sweep, err := ACminSweep(mustSpec(t, "S3"), cfg, 50, []dram.TimePS{
		7800 * dram.Nanosecond, 30 * dram.Microsecond, 300 * dram.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sweep); i++ {
		for j, r := range sweep[i].Results {
			prev := sweep[i-1].Results[j]
			if prev.Found && r.Found && r.ACmin > prev.ACmin+prev.ACmin/20 {
				t.Errorf("loc %d: ACmin rose from %d to %d as tAggON grew (beyond accuracy)",
					r.Loc, prev.ACmin, r.ACmin)
			}
		}
	}
}

// TestTable5Calibration: the simulated modules land within a factor of ~3
// of their Table 5 anchors (mean tAggONmin at AC=1 and mean ACmin at
// 7.8 µs), which keeps every figure's shape.
func TestTable5Calibration(t *testing.T) {
	anchors := []struct {
		id             string
		acmin78us      float64 // Table 5, 50 °C
		taggonminAC1ms float64 // Table 5, 50 °C, ms
	}{
		{"S0", 6.1e3, 47.3},
		{"S3", 5.7e3, 40.7},
		{"H0", 6.1e3, 46.2},
		{"M6", 6.7e3, 50.9},
	}
	cfg := quickConfig(16)
	cfg.Trials = 2
	for _, a := range anchors {
		spec := mustSpec(t, a.id)
		sweep, err := ACminSweep(spec, cfg, 50, []dram.TimePS{7800 * dram.Nanosecond})
		if err != nil {
			t.Fatal(err)
		}
		mean := stats.Mean(sweep[0].ACminValues())
		if math.IsNaN(mean) {
			t.Errorf("%s: no flips at 7.8us", a.id)
		} else if mean < a.acmin78us/3 || mean > a.acmin78us*3 {
			t.Errorf("%s: mean ACmin@7.8us = %.0f, anchor %.0f (want within 3x)", a.id, mean, a.acmin78us)
		}
		pts, err := TAggONminSweep(spec, cfg, 50, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		tm := stats.Mean(pts[0].Values()) / 1000 // ms
		if math.IsNaN(tm) {
			t.Errorf("%s: no flips at AC=1", a.id)
		} else if tm < a.taggonminAC1ms/3 || tm > a.taggonminAC1ms*3 {
			t.Errorf("%s: mean tAggONmin@AC=1 = %.1fms, anchor %.1fms", a.id, tm, a.taggonminAC1ms)
		}
	}
}
