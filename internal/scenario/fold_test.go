package scenario

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/mitigate"
)

// refPlayTo is the reference playTo: it drives the player's own slotGen
// through PlayTrace one slot at a time, every slot seen by the observer,
// and never folds.
func refPlayTo(p *player, targetAgg int) error {
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
	slots := (targetAgg-p.out.AggActs)*(p.spec.DecoyRows+1) + p.spec.DecoyRows + 1
	end, err := p.mod.PlayTrace(p.resumeAt, p.cfg.Bank, slots, func(int) dram.Slot { return p.gen.next() }, observe)
	switch {
	case errors.Is(err, errTimeBudget), errors.Is(err, errActBudget):
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

// lockstep drives a folding player (got) and a reference player (ref) of
// the same shot through the same operations, comparing them after every
// one: outcome, probe flips, the player's schedule and clocks, and the
// full module state.
type lockstep struct {
	t        *testing.T
	name     string
	got, ref *player
}

func (l *lockstep) fatalf(format string, args ...any) {
	l.t.Helper()
	l.t.Fatalf("%s: %s", l.name, fmt.Sprintf(format, args...))
}

func (l *lockstep) playTo(n int) {
	l.t.Helper()
	if err := l.got.playTo(n); err != nil {
		l.fatalf("playTo(%d): %v", n, err)
	}
	if err := refPlayTo(l.ref, n); err != nil {
		l.fatalf("reference playTo(%d): %v", n, err)
	}
	l.compare(fmt.Sprintf("paused at %d", n))
}

func (l *lockstep) checkpoint()        { l.got.checkpoint(); l.ref.checkpoint() }
func (l *lockstep) advanceCheckpoint() { l.got.advanceCheckpoint(); l.ref.advanceCheckpoint() }

func (l *lockstep) rollback() {
	l.t.Helper()
	l.got.rollback()
	l.ref.rollback()
	l.compare("after rollback")
}

func (l *lockstep) wouldFlip() bool {
	l.t.Helper()
	got, err := l.got.wouldFlip()
	if err != nil {
		l.fatalf("wouldFlip: %v", err)
	}
	want, err := l.ref.wouldFlip()
	if err != nil {
		l.fatalf("reference wouldFlip: %v", err)
	}
	if got != want {
		l.fatalf("at %d acts: wouldFlip %v, reference %v", l.got.out.AggActs, got, want)
	}
	return got
}

func (l *lockstep) compare(when string) {
	l.t.Helper()
	g, r := l.got, l.ref
	if g.outcome() != r.outcome() {
		l.fatalf("%s: outcome %+v, reference %+v", when, g.outcome(), r.outcome())
	}
	gf, err := g.flips()
	if err != nil {
		l.fatalf("%s: flips: %v", when, err)
	}
	rf, err := r.flips()
	if err != nil {
		l.fatalf("%s: reference flips: %v", when, err)
	}
	if gf != rf {
		l.fatalf("%s: %d flips, reference %d", when, gf, rf)
	}
	if g.nextRef != r.nextRef || g.nextWin != r.nextWin || g.lastOff != r.lastOff ||
		g.resumeAt != r.resumeAt || g.stopAt != r.stopAt || !reflect.DeepEqual(g.gen, r.gen) {
		l.fatalf("%s: schedule differs: gen %+v ref %d/%d/%d/%d/%d vs gen %+v ref %d/%d/%d/%d/%d", when,
			g.gen, g.nextRef, g.nextWin, g.lastOff, g.resumeAt, g.stopAt,
			r.gen, r.nextRef, r.nextWin, r.lastOff, r.resumeAt, r.stopAt)
	}
	if err := sameModule(g.mod, r.mod); err != nil {
		l.fatalf("%s: module state: %v", when, err)
	}
}

// sameModule reports the first difference between two modules' state as
// their public views show it: counters, clock, and every row's data,
// exposure (bit for bit), restore and PRE times.
func sameModule(a, b *dram.Module) error {
	if a.Counters() != b.Counters() || a.Now() != b.Now() {
		return fmt.Errorf("counters/clock %+v@%d vs %+v@%d", a.Counters(), a.Now(), b.Counters(), b.Now())
	}
	bits := func(e dram.Exposure) [5]uint64 {
		return [5]uint64{math.Float64bits(e.HammerAbove), math.Float64bits(e.HammerBelow),
			math.Float64bits(e.PressAbove), math.Float64bits(e.PressBelow), math.Float64bits(e.Retention)}
	}
	for bank := range a.Geo.Banks {
		for row := range a.Geo.RowsPerBank {
			x, y := a.View(bank, row), b.View(bank, row)
			if !bytes.Equal(x.Data, y.Data) || bits(x.Exp) != bits(y.Exp) || x.LastRestore != y.LastRestore ||
				x.LastPre != y.LastPre || x.Precharged != y.Precharged {
				return fmt.Errorf("bank %d row %d: exp %+v restore %d pre %d/%v vs exp %+v restore %d pre %d/%v",
					bank, row, x.Exp, x.LastRestore, x.LastPre, x.Precharged, y.Exp, y.LastRestore, y.LastPre, y.Precharged)
			}
		}
	}
	return nil
}

// search runs measureSite's minimum-exposure search in lockstep: the
// doubling probes as pauses of the full-budget play under an armed
// checkpoint, the budget play, then the checkpointed bisection.
func (l *lockstep) search(cfg Config) {
	l.t.Helper()
	lo, hit, hi := 0, false, 0
	l.checkpoint()
	for probe := 256; probe < cfg.MaxActs; probe *= 2 {
		l.playTo(probe)
		if l.got.out.TimeCapped {
			break
		}
		if hit = l.wouldFlip(); hit {
			hi = l.got.out.AggActs
			break
		}
		lo = l.got.out.AggActs
		l.advanceCheckpoint()
	}
	l.playTo(cfg.MaxActs)
	flips, err := l.got.flips()
	if err != nil {
		l.fatalf("flips: %v", err)
	}
	if flips == 0 {
		return
	}
	if !hit {
		hi = l.got.out.AggActs
	}
	l.rollback()
	for hi-lo > 1 && float64(hi-lo) > cfg.Accuracy*float64(hi) {
		l.playTo(lo + (hi-lo)/2)
		if l.wouldFlip() {
			hi = l.got.out.AggActs
			l.rollback()
		} else {
			lo = l.got.out.AggActs
			l.advanceCheckpoint()
		}
	}
}

// TestFoldedPlayMatchesSlotBySlot is the differential test of the
// folded play: every catalog scenario under every mitigation, paused
// along uneven and tiny-hop pause sequences and driven through the
// checkpointed search, must match a reference that plays every slot
// through PlayTrace — after every pause and rollback, in outcome, probe
// flips, schedule and full module state. Mitigated plays must not fold;
// at least half of the unmitigated slots must. One site per scenario
// keeps it quick: sites differ only in where the rows lie.
func TestFoldedPlayMatchesSlotBySlot(t *testing.T) {
	mod := testModuleSpec(t)
	cfg := playerTestConfig()
	cfg.MaxActs = 20_000
	sequences := [][]int{
		{137, 1000, 4096, 9999, cfg.MaxActs},
		{1, 2, 3, 50, 51, 700, 701, 702, 15_000, cfg.MaxActs},
	}
	folded, slots := 0, 0
	for _, sc := range Catalog() {
		for _, kind := range AllMitigations() {
			newPair := func(label string) *lockstep {
				l := &lockstep{t: t, name: fmt.Sprintf("%s/%s %s", sc.Name, kind, label)}
				for _, p := range []**player{&l.got, &l.ref} {
					mit, err := cfg.NewMitigation(kind, cfg.siteSeed(sc, 0))
					if err != nil {
						t.Fatal(err)
					}
					if *p, err = cfg.newPlayer(mod, sc, cfg.sites(sc.Sides)[0], mit); err != nil {
						t.Fatal(err)
					}
				}
				return l
			}
			for qi, seq := range sequences {
				l := newPair(fmt.Sprintf("pauses %d", qi))
				for _, n := range seq {
					l.playTo(n)
				}
				if kind == MitNone {
					folded += l.got.slotsFolded
					slots += l.got.out.TotalActs
				} else if l.got.slotsFolded != 0 {
					l.fatalf("a mitigated play folded %d slots", l.got.slotsFolded)
				}
			}
			newPair("search").search(cfg)
		}
	}
	if folded < slots/2 {
		t.Fatalf("only %d of %d unmitigated slots folded", folded, slots)
	}
	t.Logf("%d of %d unmitigated slots folded", folded, slots)
}
