package scenario

import (
	"errors"
	"math/bits"

	"repro/internal/chipgen"
	"repro/internal/dram"
	"repro/internal/mitigate"
)

// This file holds the replay-from-scratch reference the production
// player (player.go) is tested and benchmarked against: playSite plays
// one shot from a fresh module, and searchMinActsReplay bisects by
// replaying every probe through it.

// playSite plays up to actBudget aggressor activations of spec against
// one site on a fresh module, with mit observing every activation (decoys
// included), and returns the measured outcome. The trace is a prefix
// family: playSite(n) plays exactly the first n aggressor slots of
// playSite(m) for n ≤ m, which makes the min-exposure bisection sound.
func (c Config) playSite(module chipgen.ModuleSpec, spec Spec, site sitePlan,
	mit mitigate.Mitigation, actBudget int) (Outcome, error) {
	mod, _ := module.NewModule(c.Geometry, c.TempC)
	t := mod.Timing
	decoys := decoyPool(spec.DecoyRows)

	// Data-pattern setup (outside the measured command stream, like the
	// real infrastructure's bulk writes). Decoy rows stay uninitialized:
	// they carry no data, so their neighborhoods cannot flip.
	for _, v := range site.victims {
		if err := mod.InitRow(0, c.Bank, v, c.Pattern.VictimByte()); err != nil {
			return Outcome{}, err
		}
	}
	for _, a := range site.aggressors {
		if err := mod.InitRow(0, c.Bank, a, c.Pattern.AggressorByte()); err != nil {
			return Outcome{}, err
		}
	}

	// Slot schedule, generated statefully (PlayTrace streams indices in
	// order): aggressor slots round-robin the ring; a decoy burst of
	// DecoyRows slots runs either after every DecoyEvery aggressor slots
	// (unsynchronized) or — with DecoyEvery == 0 — timed so the burst
	// lands against the next tREFI boundary, the U-TRR-style bypass that
	// leaves a REF-sampling defense tracking only decoys when REF fires.
	// Generation is a pure function of the emitted history, so a shorter
	// play is an exact prefix of a longer one.
	var (
		genNow        dram.TimePS // mirrors PlayTrace's clock
		aggSlot       int         // aggressor slots emitted
		decoyIdx      int         // next decoy row
		burstLeft     int         // decoy slots still to emit in this burst
		burstPad      dram.TimePS // extra off time on the burst's last slot
		sinceBurst    int         // aggressor slots since the last burst
		burstBoundary = t.TREFI   // next REF boundary to sync a burst against
	)
	burstDur := dram.TimePS(spec.DecoyRows) * (t.TRAS + t.TRP)
	slotAt := func(int) dram.Slot {
		if burstLeft == 0 && spec.DecoyRows > 0 {
			next := spec.aggressorOnTime(aggSlot, t) + t.TRP + spec.ExtraOff
			switch {
			case spec.DecoyEvery > 0:
				if sinceBurst >= spec.DecoyEvery {
					burstLeft = spec.DecoyRows
				}
			default:
				// REF-synchronized: start the burst when one more
				// aggressor slot would no longer fit before the boundary,
				// and pad its last slot so the burst ends exactly on it —
				// the REF then samples a table holding only decoys. At
				// least one aggressor slot must run between bursts so
				// dwell slots longer than the remaining window make
				// progress (their REF is postponed past the dwell, where
				// the sampler legitimately catches them).
				if sinceBurst > 0 && genNow+next+burstDur >= burstBoundary {
					burstLeft = spec.DecoyRows
					burstPad = burstBoundary - (genNow + burstDur)
					if burstPad < 0 {
						burstPad = 0
					}
					end := genNow + burstDur + burstPad
					for burstBoundary <= end {
						burstBoundary += t.TREFI
					}
				}
			}
			if burstLeft > 0 {
				sinceBurst = 0
			}
		}
		var s dram.Slot
		if burstLeft > 0 {
			burstLeft--
			s = dram.Slot{Row: decoys[decoyIdx%len(decoys)], OnTime: t.TRAS}
			if burstLeft == 0 {
				s.ExtraOff = burstPad
				burstPad = 0
			}
			decoyIdx++
		} else {
			s = dram.Slot{
				Row:      site.aggressors[aggSlot%len(site.aggressors)],
				OnTime:   spec.aggressorOnTime(aggSlot, t),
				ExtraOff: spec.ExtraOff,
			}
			aggSlot++
			sinceBurst++
		}
		genNow += s.Duration(t)
		return s
	}
	// Upper bound on total slots; playback stops on the activation or
	// time budget via the observer, never on this bound.
	slots := actBudget*(spec.DecoyRows+1) + spec.DecoyRows + 1

	out := Outcome{}
	rf, hasREF := mit.(refresher)
	nextRef := t.TREFI
	nextWin := t.TREFW
	isDecoy := make(map[int]bool, len(decoys))
	for _, d := range decoys {
		isDecoy[d] = true
	}
	refreshRows := func(rows []int, now dram.TimePS) error {
		for _, r := range rows {
			if r < 0 || r >= c.Geometry.RowsPerBank {
				continue
			}
			if err := mod.RestoreRow(now, c.Bank, r); err != nil {
				return err
			}
			out.PreventiveRefreshes++
		}
		return nil
	}
	var lastOff dram.TimePS // off phase of the most recent slot
	observe := func(i int, s dram.Slot, now dram.TimePS) error {
		out.TotalActs++
		if !isDecoy[s.Row] {
			out.AggActs++
		}
		if err := refreshRows(mitigate.Observe(mit, s.Row, s.OnTime), now); err != nil {
			return err
		}
		// Mitigation clock: REF fires every tREFI (the sampler's refresh
		// hook) and the tracking window resets every tREFW. REFs due in
		// this slot's off phase execute now — after this activation's
		// disturbance accrued, before the next ACT enters the sampler's
		// table — matching a controller that schedules REF while the
		// bank is precharged; REFs falling inside a long dwell are
		// postponed to the dwell's own off phase, as DDR4 allows.
		// Periodic victim refresh itself stays disabled per the §4.1
		// methodology.
		lastOff = t.TRP + s.ExtraOff
		for nextRef <= now+lastOff {
			if hasREF {
				if err := refreshRows(rf.OnRefresh(), nextRef); err != nil {
					return err
				}
			}
			if nextRef >= nextWin {
				mit.OnRefreshWindow()
				nextWin += t.TREFW
			}
			nextRef += t.TREFI
		}
		if out.AggActs >= actBudget {
			return errActBudget
		}
		if now >= c.MaxTime {
			out.TimeCapped = true
			return errTimeBudget
		}
		return nil
	}

	end, err := mod.PlayTrace(0, c.Bank, slots, slotAt, observe)
	switch {
	case errors.Is(err, errTimeBudget), errors.Is(err, errActBudget):
		// A budget abort stops at the last slot's PRE instant; let that
		// slot's own off phase elapse before the check stream issues ACTs.
		end += lastOff
	case err != nil:
		return Outcome{}, err
	}
	out.Elapsed = end

	// Materialize and count victim flips.
	now := end
	for _, v := range site.victims {
		data, fin, err := mod.FetchRow(now, c.Bank, v)
		if err != nil {
			return Outcome{}, err
		}
		now = fin
		expect := c.Pattern.VictimByte()
		for _, b := range data {
			out.BitFlips += bits.OnesCount8(b ^ expect)
		}
	}
	return out, nil
}

// searchMinActsReplay is the reference min-exposure search: every probe
// replays the pattern from scratch through playSite.
func (c Config) searchMinActsReplay(module chipgen.ModuleSpec, spec Spec, site sitePlan,
	kind MitigationKind, seed uint64, hi int, hiElapsed dram.TimePS) (int, dram.TimePS, error) {
	play := func(acts int) (Outcome, error) {
		mit, err := c.NewMitigation(kind, seed)
		if err != nil {
			return Outcome{}, err
		}
		return c.playSite(module, spec, site, mit, acts)
	}
	lo := 0
	bestActs, bestTime := hi, hiElapsed
	for probe := 256; probe < hi; probe *= 2 {
		out, err := play(probe)
		if err != nil {
			return 0, 0, err
		}
		if out.BitFlips > 0 {
			bestActs, bestTime = out.AggActs, out.Elapsed
			hi = out.AggActs
			break
		}
		lo = out.AggActs
	}
	for hi-lo > 1 && float64(hi-lo) > c.Accuracy*float64(hi) {
		mid := lo + (hi-lo)/2
		out, err := play(mid)
		if err != nil {
			return 0, 0, err
		}
		if out.BitFlips > 0 {
			hi, bestActs, bestTime = out.AggActs, out.AggActs, out.Elapsed
		} else {
			lo = out.AggActs
		}
	}
	return bestActs, bestTime, nil
}
