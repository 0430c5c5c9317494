package scenario

import (
	"errors"

	"repro/internal/chipgen"
	"repro/internal/dram"
	"repro/internal/mitigate"
)

// This file is the replay-free playback engine. A player plays one
// (spec, site) shot on a fresh module, but can pause at any
// aggressor-activation count, answer "would stopping here flip a bit?"
// through the module's pure probe, and checkpoint/roll back the whole
// play — module, mitigation and schedule. One player serves a whole site
// (see measureSite): the doubling probes are pauses of the full-budget
// play itself, and the bisection walks forward from the bracket's lower
// bound instead of replaying millions of slots per probe. Prefix
// determinism (a play paused at n aggressor slots has played exactly the
// first n slots of any longer play) is what makes pausing equivalent to
// replaying; the scenario test suite holds the player against a
// replay-from-scratch reference.

// slotGen generates the deterministic slot schedule of one (spec, site)
// play: aggressor slots round-robin the ring; decoy bursts run either
// after every DecoyEvery aggressor slots or timed against the next tREFI
// boundary (the U-TRR-style sampler bypass). Generation is a pure
// function of the emitted history, held in plain fields so a checkpoint
// is a struct copy.
type slotGen struct {
	spec     Spec
	site     sitePlan
	decoys   []int
	t        dram.Timing
	burstDur dram.TimePS

	genNow        dram.TimePS // mirrors PlayTrace's clock
	aggSlot       int         // aggressor slots emitted
	decoyIdx      int         // next decoy row
	burstLeft     int         // decoy slots still to emit in this burst
	burstPad      dram.TimePS // extra off time on the burst's last slot
	sinceBurst    int         // aggressor slots since the last burst
	burstBoundary dram.TimePS // next REF boundary to sync a burst against
}

func newSlotGen(spec Spec, site sitePlan, t dram.Timing) slotGen {
	decoys := decoyPool(spec.DecoyRows)
	return slotGen{
		spec:          spec,
		site:          site,
		decoys:        decoys,
		t:             t,
		burstDur:      dram.TimePS(spec.DecoyRows) * (t.TRAS + t.TRP),
		burstBoundary: t.TREFI,
	}
}

func (g *slotGen) next() dram.Slot {
	t, spec := g.t, g.spec
	if g.burstLeft == 0 && spec.DecoyRows > 0 {
		next := spec.aggressorOnTime(g.aggSlot, t) + t.TRP + spec.ExtraOff
		switch {
		case spec.DecoyEvery > 0:
			if g.sinceBurst >= spec.DecoyEvery {
				g.burstLeft = spec.DecoyRows
			}
		default:
			// REF-synchronized: start the burst when one more aggressor
			// slot would no longer fit before the boundary, and pad its
			// last slot so the burst ends exactly on it — the REF then
			// samples a table holding only decoys. At least one aggressor
			// slot must run between bursts so dwell slots longer than the
			// remaining window make progress (their REF is postponed past
			// the dwell, where the sampler legitimately catches them).
			if g.sinceBurst > 0 && g.genNow+next+g.burstDur >= g.burstBoundary {
				g.burstLeft = spec.DecoyRows
				g.burstPad = g.burstBoundary - (g.genNow + g.burstDur)
				if g.burstPad < 0 {
					g.burstPad = 0
				}
				end := g.genNow + g.burstDur + g.burstPad
				for g.burstBoundary <= end {
					g.burstBoundary += t.TREFI
				}
			}
		}
		if g.burstLeft > 0 {
			g.sinceBurst = 0
		}
	}
	var s dram.Slot
	if g.burstLeft > 0 {
		g.burstLeft--
		s = dram.Slot{Row: g.decoys[g.decoyIdx%len(g.decoys)], OnTime: t.TRAS}
		if g.burstLeft == 0 {
			s.ExtraOff = g.burstPad
			g.burstPad = 0
		}
		g.decoyIdx++
	} else {
		s = dram.Slot{
			Row:      g.site.aggressors[g.aggSlot%len(g.site.aggressors)],
			OnTime:   spec.aggressorOnTime(g.aggSlot, t),
			ExtraOff: spec.ExtraOff,
		}
		g.aggSlot++
		g.sinceBurst++
	}
	g.genNow += s.Duration(t)
	return s
}

// player drives one (module, spec, site, mitigation) play incrementally.
type player struct {
	cfg  Config
	spec Spec
	site sitePlan
	mod  *dram.Module
	mit  mitigate.Mitigation
	gen  slotGen

	out      Outcome
	nextRef  dram.TimePS
	nextWin  dram.TimePS
	lastOff  dram.TimePS
	resumeAt dram.TimePS // where the next slot starts
	stopAt   dram.TimePS // pattern time if the play stopped here (Outcome.Elapsed)
	rf       refresher
	hasREF   bool

	cp playerCheckpoint
}

// playerCheckpoint captures the player's scalar state alongside the
// module's journal and the mitigation's snapshot.
type playerCheckpoint struct {
	gen      slotGen
	out      Outcome
	nextRef  dram.TimePS
	nextWin  dram.TimePS
	lastOff  dram.TimePS
	resumeAt dram.TimePS
	stopAt   dram.TimePS
	mitState any
}

// newPlayer builds a fresh play: module instantiated, site rows
// initialized with the data pattern (outside the measured command
// stream, like the real infrastructure's bulk writes; decoy rows carry no
// data, so their neighborhoods cannot flip), schedule generator at slot
// zero.
func (c Config) newPlayer(module chipgen.ModuleSpec, spec Spec, site sitePlan, mit mitigate.Mitigation) (*player, error) {
	mod, _ := module.NewModule(c.Geometry, c.TempC)
	t := mod.Timing
	for _, v := range site.victims {
		if err := mod.InitRow(0, c.Bank, v, c.Pattern.VictimByte()); err != nil {
			return nil, err
		}
	}
	for _, a := range site.aggressors {
		if err := mod.InitRow(0, c.Bank, a, c.Pattern.AggressorByte()); err != nil {
			return nil, err
		}
	}
	p := &player{
		cfg:     c,
		spec:    spec,
		site:    site,
		mod:     mod,
		mit:     mit,
		gen:     newSlotGen(spec, site, t),
		nextRef: t.TREFI,
		nextWin: t.TREFW,
	}
	p.rf, p.hasREF = mit.(refresher)
	return p, nil
}

func (p *player) refreshRows(rows []int, now dram.TimePS) error {
	for _, r := range rows {
		if r < 0 || r >= p.cfg.Geometry.RowsPerBank {
			continue
		}
		if err := p.mod.RestoreRow(now, p.cfg.Bank, r); err != nil {
			return err
		}
		p.out.PreventiveRefreshes++
	}
	return nil
}

// playTo advances the play until targetAgg aggressor activations have
// retired (or the budget stops it first). Pausing and resuming is
// trajectory-identical to an uninterrupted play: the generator, the
// mitigation clock, and the module all continue from where they stopped.
// That holds at the budget edge too: the activation budget (MaxActs)
// outranks the time budget, as in an uninterrupted play, but a pause
// below it yields to the time budget, so a play never pauses on a slot
// where the uninterrupted play stops.
func (p *player) playTo(targetAgg int) error {
	if p.out.TimeCapped || p.out.AggActs >= targetAgg {
		return nil
	}
	t := p.mod.Timing
	observe := func(i int, s dram.Slot, now dram.TimePS) error {
		p.out.TotalActs++
		if !isDecoy(s.Row, p.spec.DecoyRows) {
			p.out.AggActs++
		}
		if err := p.refreshRows(mitigate.Observe(p.mit, s.Row, s.OnTime), now); err != nil {
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
		p.lastOff = t.TRP + s.ExtraOff
		for p.nextRef <= now+p.lastOff {
			if p.hasREF {
				if err := p.refreshRows(p.rf.OnRefresh(), p.nextRef); err != nil {
					return err
				}
			}
			if p.nextRef >= p.nextWin {
				p.mit.OnRefreshWindow()
				p.nextWin += t.TREFW
			}
			p.nextRef += t.TREFI
		}
		if p.out.AggActs >= p.cfg.MaxActs {
			return errActBudget
		}
		if now >= p.cfg.MaxTime {
			p.out.TimeCapped = true
			return errTimeBudget
		}
		if p.out.AggActs >= targetAgg {
			return errActBudget
		}
		return nil
	}
	// Upper bound on slots to the target; the observer aborts first.
	slots := (targetAgg-p.out.AggActs)*(p.spec.DecoyRows+1) + p.spec.DecoyRows + 1
	end, err := p.mod.PlayTrace(p.resumeAt, p.cfg.Bank, slots, func(int) dram.Slot { return p.gen.next() }, observe)
	switch {
	case errors.Is(err, errTimeBudget), errors.Is(err, errActBudget):
		// A budget abort stops at the last slot's PRE instant; let that
		// slot's own off phase elapse before any check stream issues ACTs.
		p.stopAt = end + p.lastOff
	case err != nil:
		return err
	default:
		p.stopAt = end
	}
	p.resumeAt = p.gen.genNow
	p.out.Elapsed = p.stopAt
	return nil
}

// flips counts the victim bits a check stream issued right now would
// read back flipped — through the module's pure probe, so the play can
// continue (or roll back) afterwards as if no check had happened. Flips a
// preventive refresh burned into a victim mid-play count too: they are
// in the fetched data.
func (p *player) flips() (int, error) {
	return p.mod.ProbeCheck(p.stopAt, p.cfg.Bank, p.site.victims, p.cfg.Pattern.VictimByte(), 0)
}

// wouldFlip is the any-flip predicate of flips(): the same probe, stopped
// at the first flipped bit.
func (p *player) wouldFlip() (bool, error) {
	n, err := p.mod.ProbeCheck(p.stopAt, p.cfg.Bank, p.site.victims, p.cfg.Pattern.VictimByte(), 1)
	return n > 0, err
}

// outcome returns the Outcome of stopping the play here.
func (p *player) outcome() Outcome {
	o := p.out
	o.Elapsed = p.stopAt
	return o
}

// checkpoint arms a snapshot of the whole play (module, mitigation,
// generator, budget accounting).
func (p *player) checkpoint() {
	p.mod.Checkpoint()
	p.cp = playerCheckpoint{
		gen: p.gen, out: p.out,
		nextRef: p.nextRef, nextWin: p.nextWin, lastOff: p.lastOff,
		resumeAt: p.resumeAt, stopAt: p.stopAt,
		mitState: p.mit.CheckpointState(),
	}
}

// rollback returns the play to the armed checkpoint, which stays armed.
func (p *player) rollback() {
	p.mod.Rollback()
	cp := p.cp
	p.gen, p.out = cp.gen, cp.out
	p.nextRef, p.nextWin, p.lastOff = cp.nextRef, cp.nextWin, cp.lastOff
	p.resumeAt, p.stopAt = cp.resumeAt, cp.stopAt
	p.mit.RestoreState(cp.mitState)
}

// advanceCheckpoint re-arms the checkpoint at the current position (the
// search's new lower bound).
func (p *player) advanceCheckpoint() {
	p.mod.ReleaseCheckpoint()
	p.checkpoint()
}

// bisect narrows the minimum-exposure bracket (lo, hi] to the accuracy
// fraction and returns the smallest aggressor-activation count found to
// flip, with the pattern time that exposure takes. The play must sit at
// an armed checkpoint at lo activations, a count known not to flip; hi is
// known to flip, reached at hiTime. Each probe walks forward from the
// checkpoint: a hit rolls back to it, a miss re-arms it at the probe.
func (p *player) bisect(lo, hi int, hiTime dram.TimePS) (int, dram.TimePS, error) {
	for hi-lo > 1 && float64(hi-lo) > p.cfg.Accuracy*float64(hi) {
		if err := p.playTo(lo + (hi-lo)/2); err != nil {
			return 0, 0, err
		}
		hit, err := p.wouldFlip()
		if err != nil {
			return 0, 0, err
		}
		if hit {
			hi, hiTime = p.out.AggActs, p.stopAt
			p.rollback()
		} else {
			lo = p.out.AggActs
			p.advanceCheckpoint()
		}
	}
	return hi, hiTime, nil
}
