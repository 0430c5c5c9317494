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
//
// Between pauses an unmitigated play has no state event, and its slot
// stream is periodic: the generator's state recurs (slotGen.period). Such
// a play hands each stretch of whole periods to dram.Module.TraceRun,
// which folds it into float adds once it is steady, and sets its own
// counters, schedule and REF clock in closed form; only the slots around
// a pause play one at a time, with the observer. A mitigated play always
// plays slot by slot (foldEligible).

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

// genKey is the part of a slotGen's state that its future slots depend
// on: the ring and burst-cycle positions, the decoy burst in progress
// and, with decoys, the aggressor slots since the last burst and the
// distance to the next REF boundary. Every other field only grows.
type genKey struct {
	ring, cycle, decoy, burstLeft, sinceBurst int
	burstPad, toBoundary                      dram.TimePS
}

func (g *slotGen) key() genKey {
	k := genKey{ring: g.aggSlot % len(g.site.aggressors), burstLeft: g.burstLeft, burstPad: g.burstPad}
	if g.spec.Kind == Combined {
		k.cycle = g.aggSlot % (g.spec.Burst + 1) // as aggressorOnTime reads it
	}
	if g.spec.DecoyRows > 0 {
		k.decoy = g.decoyIdx % len(g.decoys)
		k.sinceBurst = g.sinceBurst
		if g.spec.DecoyEvery == 0 {
			k.toBoundary = g.burstBoundary - g.genNow
		}
	}
	return k
}

// maxPeriodSlots bounds the search for a slot stream's period; a stream
// whose state does not recur that soon plays slot by slot.
const maxPeriodSlots = 1 << 12

// period finds where g's slot stream turns periodic: from slot from on,
// slot i+slots is slot i. That is lcm(Sides, Burst+1[, DecoyEvery])
// aggressor slots from slot 0 for fixed-count decoys, and one REF
// boundary-to-boundary recurrence after a short lead for REF-synced
// ones. slots is 0 when no state recurs within maxPeriodSlots. g is a
// copy; the caller's generator does not move.
func (g slotGen) period() (from, slots int) {
	seen := make(map[genKey]int)
	for i := 0; i <= maxPeriodSlots; i++ {
		k := g.key()
		if j, ok := seen[k]; ok {
			return j, i - j
		}
		seen[k] = i
		g.next()
	}
	return 0, 0
}

// skip moves g over n periods, given next, g one period on: the fields
// of genKey are equal in both, and the growing ones grow by the same
// amount every period.
func (g *slotGen) skip(next *slotGen, n int) {
	g.genNow += dram.TimePS(n) * (next.genNow - g.genNow)
	g.burstBoundary += dram.TimePS(n) * (next.burstBoundary - g.burstBoundary)
	g.aggSlot += n * (next.aggSlot - g.aggSlot)
	g.decoyIdx += n * (next.decoyIdx - g.decoyIdx)
	g.sinceBurst += n * (next.sinceBurst - g.sinceBurst)
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

	// The slot stream's period when the play may fold (see foldTo):
	// periodic from slot periodFrom on, periodSlots slots per period; 0
	// slots plays slot by slot. window is foldTo's buffer, and
	// slotsFolded counts the slots TraceRun folded over the player's life.
	periodFrom, periodSlots int
	window                  []dram.Slot
	slotsFolded             int

	cp playerCheckpoint
}

// foldEligible reports whether a play under mit may fold its periodic
// stretches: only when the mitigation does nothing per activation or per
// REF. PARA draws its RNG on every ACT, and TRR, Graphene and ImPress
// track activations and refresh rows, so their plays stay slot by slot.
func foldEligible(mit mitigate.Mitigation) bool {
	_, ok := mit.(mitigate.None)
	return ok
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
	if foldEligible(mit) {
		p.periodFrom, p.periodSlots = p.gen.period()
	}
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
// where the uninterrupted play stops. A play that may fold plays its
// aperiodic lead slot by slot, folds the whole periods before the stop,
// and plays the rest slot by slot.
func (p *player) playTo(targetAgg int) error {
	if p.out.TimeCapped || p.out.AggActs >= targetAgg {
		return nil
	}
	if p.periodSlots > 0 {
		if lead := p.periodFrom - p.out.TotalActs; lead > 0 {
			if stopped, err := p.playSlots(targetAgg, lead); err != nil || stopped {
				return err
			}
		}
		if err := p.foldTo(targetAgg); err != nil {
			return err
		}
	}
	_, err := p.playSlots(targetAgg, -1)
	return err
}

// playSlots plays slot by slot through PlayTrace, every activation seen
// by the observer, until the target, a budget, or — with n ≥ 0 — n slots
// stop it; stopped reports the first two.
func (p *player) playSlots(targetAgg, n int) (stopped bool, err error) {
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
	if n >= 0 {
		slots = min(slots, n)
	}
	end, err := p.mod.PlayTrace(p.resumeAt, p.cfg.Bank, slots, func(int) dram.Slot { return p.gen.next() }, observe)
	switch {
	case errors.Is(err, errTimeBudget), errors.Is(err, errActBudget):
		// A budget abort stops at the last slot's PRE instant; let that
		// slot's own off phase elapse before any check stream issues ACTs.
		p.stopAt = end + p.lastOff
		stopped = true
	case err != nil:
		return false, err
	default:
		p.stopAt = end
	}
	p.resumeAt = p.gen.genNow
	p.out.Elapsed = p.stopAt
	return stopped, nil
}

// foldTo plays every whole period of the slot stream that fits before
// the play's next stop — the pause at targetAgg, MaxActs or MaxTime — as
// one dram.TraceRun, so the slot that stops the play is still played by
// playSlots. No observer sees the run's slots: the outcome counters, the
// generator and the REF clock advance in closed form. The play must be
// at or past its periodic lead.
func (p *player) foldTo(targetAgg int) error {
	t := p.mod.Timing
	g := p.gen
	p.window = p.window[:0]
	for range p.periodSlots {
		p.window = append(p.window, g.next())
	}
	// A period holds at least one aggressor slot: a decoy burst cannot
	// recur within itself, since burstLeft counts down.
	aggPer := g.aggSlot - p.gen.aggSlot
	length := g.genNow - p.gen.genNow
	lastOff := t.TRP + p.window[len(p.window)-1].ExtraOff
	// Every folded slot must leave AggActs below the stop and PRE before
	// MaxTime; the last slot of the last period is the latest of both.
	reps := (min(targetAgg, p.cfg.MaxActs) - 1 - p.out.AggActs) / aggPer
	if room := p.cfg.MaxTime - p.resumeAt - (length - lastOff); room <= 0 {
		reps = 0
	} else {
		reps = min(reps, int((room-1)/length)+1)
	}
	if reps < 1 {
		return nil
	}
	end, folded, err := p.mod.TraceRun(p.resumeAt, p.cfg.Bank, p.window, reps)
	if err != nil {
		return err
	}
	p.slotsFolded += folded * len(p.window)
	p.gen.skip(&g, reps)
	p.out.TotalActs += reps * len(p.window)
	p.out.AggActs += reps * aggPer
	p.lastOff = lastOff
	p.resumeAt, p.stopAt, p.out.Elapsed = end, end, end
	// Every REF due by the run's end has fired, and every tREFW window
	// boundary a REF reached has reset the mitigation's tracking.
	if p.nextRef <= end {
		n := (end-p.nextRef)/t.TREFI + 1
		last := p.nextRef + (n-1)*t.TREFI
		for p.nextWin <= last {
			p.mit.OnRefreshWindow()
			p.nextWin += t.TREFW
		}
		p.nextRef += n * t.TREFI
	}
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
