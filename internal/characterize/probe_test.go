package characterize

import (
	"fmt"
	"testing"

	"repro/internal/bender"
	"repro/internal/dram"
)

// commandPathSearchACmin is the pre-refactor search, retained verbatim as
// the reference implementation: every probe prepares, hammers, and checks
// through the bench's command path.
func commandPathSearchACmin(p *prober, s site, onTime dram.TimePS) (RowResult, error) {
	b, cfg := p.b, p.cfg
	slot := onTime + b.Mod.Timing.TRP
	hi := maxActivations(cfg.TimeBudget, slot, len(s.aggressors))

	probe := func(ac int) ([]bender.Flip, error) {
		if err := s.prepare(b, cfg.Pattern); err != nil {
			return nil, err
		}
		if err := s.hammer(b, ac, onTime, 0); err != nil {
			return nil, err
		}
		return s.check(b, cfg.Pattern)
	}

	flips, err := probe(hi)
	if err != nil {
		return RowResult{}, err
	}
	if len(flips) == 0 {
		return RowResult{Loc: s.loc}, nil
	}
	lo := 0
	best := flips
	for hi-lo > 1 && float64(hi-lo) > cfg.Accuracy*float64(hi) {
		mid := lo + (hi-lo)/2
		flips, err := probe(mid)
		if err != nil {
			return RowResult{}, err
		}
		if len(flips) > 0 {
			hi, best = mid, flips
		} else {
			lo = mid
		}
	}
	return RowResult{Loc: s.loc, ACmin: hi, Found: true, Flips: best}, nil
}

// TestProberMatchesCommandPath is the fast-path equivalence contract for
// the characterization searches: the replay-free prober must return the
// same ACmin, the same found/not-found outcome, and the same flip list as
// the per-command reference, across modules, sidedness, dwell lengths,
// trials, and back-to-back searches that thread state from one to the
// next.
func TestProberMatchesCommandPath(t *testing.T) {
	taggons := []dram.TimePS{
		36 * dram.Nanosecond,
		636 * dram.Nanosecond,
		7800 * dram.Nanosecond,
		70200 * dram.Nanosecond,
		6 * dram.Millisecond,
	}
	for _, id := range []string{"S3", "H0", "M3"} {
		for _, sided := range []Sidedness{SingleSided, DoubleSided} {
			cfg := quickConfig(3)
			cfg.Sided = sided
			cfg.Trials = 2
			checkProberMatchesCommandPath(t, id, cfg, taggons)
		}
	}
}

// TestProberMatchesCommandPathAllPatterns extends the contract to every
// data pattern of §5.3. The victim byte decides which of the prober's
// shortcuts a probe takes: RowStripe's 0x00 victims start on a fresh
// zero buffer that needs no fill, while 0xFF, 0xAA and 0x55 victims
// exercise the refill and the word-wise diff against a non-zero word.
func TestProberMatchesCommandPathAllPatterns(t *testing.T) {
	taggons := []dram.TimePS{36 * dram.Nanosecond, 7800 * dram.Nanosecond}
	for _, pat := range dram.AllDataPatterns {
		for _, sided := range []Sidedness{SingleSided, DoubleSided} {
			cfg := quickConfig(3)
			cfg.Sided = sided
			cfg.Trials = 2
			cfg.Pattern = pat
			if checkProberMatchesCommandPath(t, "S3", cfg, taggons) == 0 {
				t.Fatalf("%s %s: no search found a flip, so no diff was compared", pat, sided)
			}
		}
	}
}

// checkProberMatchesCommandPath runs ACmin searches for every (taggon,
// tested location, trial) of cfg on two identically-built benches of
// module id, one through the per-command reference and one through a
// single prober threaded across all of them, and fails on the first
// difference in outcome, flips, or bench clock. It returns the number of
// flips the searches reported.
func checkProberMatchesCommandPath(t *testing.T, id string, cfg Config, taggons []dram.TimePS) int {
	t.Helper()
	sided := cfg.Sided
	// Two identically-built benches: one drives the reference command
	// path, one the prober. Both must see the same bench-sequence
	// history across every (taggon, loc, trial).
	bRef, err := NewBench(mustSpec(t, id), cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	bNew, err := NewBench(mustSpec(t, id), cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	pRef := newProber(bRef, cfg) // carries bench + cfg for the reference
	pNew := newProber(bNew, cfg)

	flips := 0
	for _, on := range taggons {
		for _, loc := range testedLocations(cfg.Geometry, cfg.RowsToTest) {
			s := siteFor(loc, sided)
			for trial := uint64(1); trial <= uint64(cfg.Trials); trial++ {
				bRef.SetTrial(trial)
				bNew.SetTrial(trial)
				where := fmt.Sprintf("%s %s %s %s loc %d trial %d", id, sided, cfg.Pattern, dram.FormatTime(on), loc, trial)
				want, err := commandPathSearchACmin(pRef, s, on)
				if err != nil {
					t.Fatal(err)
				}
				got, err := pNew.searchACmin(s, on)
				if err != nil {
					t.Fatal(err)
				}
				if want.Found != got.Found || want.ACmin != got.ACmin {
					t.Fatalf("%s: command path (found=%v ACmin=%d) != prober (found=%v ACmin=%d)",
						where, want.Found, want.ACmin, got.Found, got.ACmin)
				}
				if len(want.Flips) != len(got.Flips) {
					t.Fatalf("%s: flip count %d != %d", where, len(want.Flips), len(got.Flips))
				}
				for i := range want.Flips {
					if want.Flips[i] != got.Flips[i] {
						t.Fatalf("%s: flip %d differs: %+v != %+v", where, i, want.Flips[i], got.Flips[i])
					}
				}
				if bRef.Now() != bNew.Now() {
					t.Fatalf("%s: bench clocks diverged: %d != %d", where, bRef.Now(), bNew.Now())
				}
				flips += len(got.Flips)
			}
			bRef.SetTrial(0)
			bNew.SetTrial(0)
		}
	}
	return flips
}

// TestProberPrepareClearsPendingExposure pins the epoch rule: the check
// stream's self-disturbance leaves exposure pending on the site's
// neighbourhood, and the next prepare must make every row's pending
// exposure read as zero, as the command path's InitRow does.
func TestProberPrepareClearsPendingExposure(t *testing.T) {
	cfg := quickConfig(1)
	cfg.Sided = DoubleSided
	b, err := NewBench(mustSpec(t, "S3"), cfg, 50)
	if err != nil {
		t.Fatal(err)
	}
	p := newProber(b, cfg)
	s := siteFor(testedLocations(cfg.Geometry, cfg.RowsToTest)[0], cfg.Sided)
	if _, err := p.probe(s, 1000, 36*dram.Nanosecond, 0); err != nil {
		t.Fatal(err)
	}
	dirty := 0
	for _, rs := range p.rows {
		if !p.pending(rs).IsZero() {
			dirty++
		}
	}
	if dirty == 0 {
		t.Fatal("no exposure pending after a probe; the check stream should leave some")
	}
	p.prepare(s)
	for row, rs := range p.rows {
		if e := *p.pending(rs); !e.IsZero() {
			t.Fatalf("row %d: exposure %+v still pending after prepare", row, e)
		}
	}
}

// TestAppendDiffMatchesByteScan pins the word-wise victim diff to a plain
// byte-by-byte scan, for lengths with and without a partial last word and
// for flips in the first, a middle and the last byte.
func TestAppendDiffMatchesByteScan(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 17, 8192} {
		for _, expect := range []byte{0x00, 0xFF, 0x55, 0xAA} {
			data := dram.Fill(make([]byte, n), expect)
			for _, i := range []int{0, n / 2, n - 1} {
				if i >= 0 && i < n {
					data[i] ^= byte(1 << (i % 8))
				}
			}
			var want []bender.Flip
			for i, got := range data {
				for bit := uint8(0); bit < 8; bit++ {
					if (got^expect)&(1<<bit) != 0 {
						want = append(want, bender.Flip{LogicalRow: 3, Byte: i, Bit: bit, From: expect&(1<<bit) != 0})
					}
				}
			}
			got := appendDiff(nil, 3, data, expect)
			if len(got) != len(want) {
				t.Fatalf("len %d expect %#02x: %d flips, want %d", n, expect, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("len %d expect %#02x: flip %d is %+v, want %+v", n, expect, i, got[i], want[i])
				}
			}
		}
	}
}
