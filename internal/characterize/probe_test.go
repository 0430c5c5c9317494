package characterize

import (
	"encoding/binary"
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

// appendDiff is the full-row victim diff the prober ran before flips were
// logged, kept as the reference its logged diff is checked against: it
// appends a flip for every bit of row's contents that differs from the
// expected fill byte, in (byte, bit) order, comparing eight bytes at a
// time and scanning bytes only inside a mismatching word.
func appendDiff(all []bender.Flip, row int, data []byte, expect byte) []bender.Flip {
	word := uint64(expect) * 0x0101010101010101
	i := 0
	for ; i+8 <= len(data); i += 8 {
		if binary.LittleEndian.Uint64(data[i:]) == word {
			continue
		}
		for j := i; j < i+8; j++ {
			all = appendByteDiff(all, row, j, data[j], expect)
		}
	}
	for ; i < len(data); i++ {
		all = appendByteDiff(all, row, i, data[i], expect)
	}
	return all
}

// TestAppendDiffMatchesByteScan pins the word-wise reference diff to a
// plain byte-by-byte scan, for lengths with and without a partial last word and
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

// TestProberFlipLogMatchesFullScan holds the prober's logged rows to the
// full-row scan they replace. An ACmin search, a BER measurement and a
// retention test run on a few dies and data patterns; after every check,
// every row the prober holds must equal its fill byte outside its dirty
// offsets (so prepare's partial reset and check's partial diff see every
// changed byte), the row window must agree with the row map, and the
// flips check returned must equal a word-wise scan of the victims.
func TestProberFlipLogMatchesFullScan(t *testing.T) {
	taggons := []dram.TimePS{36 * dram.Nanosecond, 7800 * dram.Nanosecond, 6 * dram.Millisecond}
	checks, flips, multiBit := 0, 0, 0
	for _, id := range []string{"S3", "H0", "M3"} {
		for _, pat := range []dram.DataPattern{dram.RowStripe, dram.CheckerBoard} {
			for _, sided := range []Sidedness{SingleSided, DoubleSided} {
				cfg := quickConfig(3)
				cfg.Sided = sided
				cfg.Pattern = pat
				where := fmt.Sprintf("%s %s %s", id, pat, sided)
				watch := func(p *prober) {
					p.checked = func(s site, got []bender.Flip) {
						checks++
						flips += len(got)
						multiBit += checkProberRows(t, where, p, s, got)
					}
				}

				b, err := NewBench(mustSpec(t, id), cfg, 50)
				if err != nil {
					t.Fatal(err)
				}
				p := newProber(b, cfg)
				watch(p)
				locs := testedLocations(cfg.Geometry, cfg.RowsToTest)
				for _, on := range taggons {
					for _, loc := range locs {
						if _, err := searchACminTrials(p, siteFor(loc, sided), on); err != nil {
							t.Fatal(err)
						}
					}
				}
				for _, loc := range locs {
					if _, err := measureBERProbed(p, siteFor(loc, sided), 7800*dram.Nanosecond, 0); err != nil {
						t.Fatal(err)
					}
				}

				bret, err := NewBench(mustSpec(t, id), cfg, 50)
				if err != nil {
					t.Fatal(err)
				}
				if err := bret.SetTemperature(80); err != nil {
					t.Fatal(err)
				}
				pret := newProber(bret, cfg)
				watch(pret)
				// The extra location's site overlaps the first one's and
				// is prepared after it, so the first check meets a victim
				// holding the aggressor fill: the byte-by-byte diff.
				pret.retention(append(locs, locs[0]+1), 4)
			}
		}
	}
	// The logged diff de-duplicates a byte two flips share; a run without
	// such a byte would leave that step unchecked.
	if flips == 0 || multiBit == 0 {
		t.Fatalf("%d checks returned %d flips, %d bytes with more than one; the check is vacuous", checks, flips, multiBit)
	}
}

// checkProberRows asserts the prober's row invariants after a check of s
// that returned got, and returns how many of got's flips share their
// byte with the flip before them in a victim holding the expected fill.
func checkProberRows(t *testing.T, where string, p *prober, s site, got []bender.Flip) int {
	t.Helper()
	for r, rs := range p.rows {
		logged := make(map[int32]bool, len(rs.dirty))
		for _, c := range rs.dirty {
			logged[c] = true
		}
		for i, v := range rs.data {
			if v != rs.fill && !logged[int32(i)] {
				t.Fatalf("%s loc %d: row %d byte %d is %#02x, fill %#02x, but not in its dirty log", where, s.loc, r, i, v, rs.fill)
			}
		}
	}
	for i, rs := range p.win {
		if rs != nil && rs != p.rows[p.winLo+i] {
			t.Fatalf("%s loc %d: window slot %d is not row %d's record", where, s.loc, i, p.winLo+i)
		}
	}
	expect := p.cfg.Pattern.VictimByte()
	var want []bender.Flip
	for _, v := range s.victims {
		want = appendDiff(want, v, p.rows[v].data, expect)
	}
	if len(got) != len(want) {
		t.Fatalf("%s loc %d: check returned %d flips, a full scan finds %d", where, s.loc, len(got), len(want))
	}
	multiBit := 0
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s loc %d: flip %d is %+v, a full scan has %+v", where, s.loc, i, got[i], want[i])
		}
		same := i > 0 && want[i].Byte == want[i-1].Byte && want[i].LogicalRow == want[i-1].LogicalRow
		if same && p.rows[want[i].LogicalRow].fill == expect {
			multiBit++
		}
	}
	return multiBit
}
