package simperf

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigate"
	"repro/internal/workload"
)

// refSim is the reference simulator: the generator-fed Sim as it ran
// before streams were recorded. Each core draws its next request from its
// own workload.Generator when the previous one is served, and ACTs are
// counted per (bank, row) in a map.
type refSim struct {
	cfg    Config
	timing dram.Timing
	banks  []memctrl.BankState
	mits   []mitigate.Mitigation
	cores  []*refCore

	now      dram.TimePS
	nextREF  dram.TimePS
	refCount int
	acts     mapACTCounter

	result Result
}

type refCore struct {
	gen      *workload.Generator
	stats    CoreStats
	pending  workload.Request
	waiting  bool
	readyAt  dram.TimePS
	doneInst int
}

func newRefSim(cfg Config, profiles []workload.Profile, seed uint64) (*refSim, error) {
	s := &refSim{
		cfg:     cfg,
		timing:  dram.DDR4(),
		banks:   make([]memctrl.BankState, cfg.Banks),
		nextREF: dram.DDR4().TREFI,
		acts:    mapACTCounter{counts: make(map[int64]int)},
	}
	if cfg.NewMitigation != nil {
		s.mits = make([]mitigate.Mitigation, cfg.Banks)
		for b := range s.mits {
			s.mits[b] = cfg.NewMitigation(b)
		}
	}
	for i, p := range profiles {
		gen, err := workload.NewGenerator(p, cfg.Banks, cfg.RowsPerBank, cfg.BlocksRow, seed+uint64(i)*0x9E37)
		if err != nil {
			return nil, err
		}
		c := &refCore{gen: gen}
		c.stats.Workload = p.Name
		s.cores = append(s.cores, c)
	}
	return s, nil
}

func (s *refSim) fetch(c *refCore, from dram.TimePS) {
	if c.doneInst >= s.cfg.InstrPerCore {
		c.stats.Instructions = c.doneInst
		c.stats.Cycles = int64((from / instrPS))
		return
	}
	c.pending = c.gen.Next()
	c.waiting = true
	c.readyAt = from + dram.TimePS(c.pending.InstrGap)*instrPS/retireWidth
	c.doneInst += c.pending.InstrGap
}

func (s *refSim) run() Result {
	for _, c := range s.cores {
		s.fetch(c, 0)
	}
	for {
		c := s.pickNext()
		if c == nil {
			break
		}
		s.serve(c)
	}
	for _, c := range s.cores {
		s.result.Cores = append(s.result.Cores, c.stats)
	}
	s.result.MaxRowACTsPerWindow = s.acts.max
	return s.result
}

func (s *refSim) pickNext() *refCore {
	var best *refCore
	bestHit := false
	for _, c := range s.cores {
		if !c.waiting {
			continue
		}
		if best == nil {
			best = c
			bestHit = s.isHit(c)
			continue
		}
		arrived := c.readyAt <= s.now
		bestArrived := best.readyAt <= s.now
		switch {
		case arrived && !bestArrived:
			best, bestHit = c, s.isHit(c)
		case arrived == bestArrived:
			hit := s.isHit(c)
			if (hit && !bestHit) || (hit == bestHit && c.readyAt < best.readyAt) {
				best, bestHit = c, hit
			}
		}
	}
	return best
}

func (s *refSim) isHit(c *refCore) bool {
	at := c.readyAt
	if at < s.now {
		at = s.now
	}
	return s.banks[c.pending.Bank].RowOpenFor(c.pending.Row, at, s.cfg.Policy)
}

func (s *refSim) serve(c *refCore) {
	req := c.pending
	c.waiting = false
	start := c.readyAt
	if start < s.now {
		start = s.now
	}
	for s.nextREF <= start {
		for b := range s.banks {
			s.banks[b].Preempt(s.nextREF + s.timing.TRFC)
		}
		s.refCount++
		if s.refCount%s.timing.RefreshesPerWindow() == 0 {
			for _, m := range s.mits {
				m.OnRefreshWindow()
			}
			s.acts.flush()
		}
		s.nextREF += s.timing.TREFI
	}
	bank := &s.banks[req.Bank]
	done, activated := bank.Access(start, req.Row, s.cfg.Policy, s.timing)
	if activated {
		c.stats.RowMisses++
		s.result.Activations++
		s.acts.count(req.Bank, req.Row)
		if s.mits != nil {
			if victims := s.mits[req.Bank].OnActivate(req.Row); len(victims) > 0 {
				s.result.PreventiveRefreshes += uint64(len(victims))
				bank.Preempt(done + dram.TimePS(len(victims))*s.timing.TRC())
			}
		}
	} else {
		c.stats.RowHits++
	}
	if done > s.now {
		s.now = done
	}
	s.fetch(c, done)
}

// TestRecordedReplayMatchesGenerator replays recorded traces and runs the
// generator-fed reference on the same inputs: open, closed, tmro-capped
// and decoupled row policies, each with no mitigation, Graphene-RP and
// PARA-RP, on a 1-core and a 4-core mix, two seeds, plus a Graphene run
// past the first tREFW. Every Result field must match.
func TestRecordedReplayMatchesGenerator(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InstrPerCore = 60_000
	mixes := [][]workload.Profile{
		{prof(t, "433.milc")},
		{prof(t, "429.mcf"), prof(t, "462.libquantum"), prof(t, "calculix"), prof(t, "gcc")},
	}
	const tmro = 96 * dram.Nanosecond
	policies := []memctrl.RowPolicy{memctrl.OpenRow(), memctrl.ClosedRow(), memctrl.TmroCap(tmro), memctrl.Decoupled()}
	type mech struct {
		name    string
		factory func(seed uint64) func(int) mitigate.Mitigation
	}
	mechs := []mech{
		{"none", func(uint64) func(int) mitigate.Mitigation { return nil }},
		{"Graphene-RP", func(seed uint64) func(int) mitigate.Mitigation {
			f, _ := AdaptedFactory(KindGraphene, tmro, seed)
			return f
		}},
		{"PARA-RP", func(seed uint64) func(int) mitigate.Mitigation {
			f, _ := AdaptedFactory(KindPARA, tmro, seed)
			return f
		}},
	}
	compare := func(name string, cfg Config, mix []workload.Profile, seed uint64) {
		t.Helper()
		tr, err := Record(cfg, mix, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunMix(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefSim(cfg, mix, seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.run(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replay %+v\nreference %+v", name, got, want)
		}
	}
	for _, seed := range []uint64{1, 2} {
		for _, mix := range mixes {
			for pi, pol := range policies {
				for _, m := range mechs {
					c := cfg
					c.Policy = pol
					c.NewMitigation = m.factory(seed)
					compare(fmt.Sprintf("seed %d, %d cores, policy %d, %s", seed, len(mix), pi, m.name), c, mix, seed)
				}
			}
		}
	}
	past, sparse := pastTREFW()
	past.NewMitigation = func(int) mitigate.Mitigation { return mitigate.NewGraphene(40, 4) }
	compare("past tREFW", past, sparse, 3)
}

// BenchmarkSimReplay replays one recorded 4-core mix (two heavy, two light
// workloads) under Graphene-RP at tmro 96 ns: New plus Run, recording
// excluded.
func BenchmarkSimReplay(b *testing.B) {
	cfg := DefaultConfig()
	cfg.InstrPerCore = 200_000
	mix := []workload.Profile{prof(b, "429.mcf"), prof(b, "433.milc"), prof(b, "gcc"), prof(b, "calculix")}
	tr, err := Record(cfg, mix, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RunAdapted(KindGraphene, 96*dram.Nanosecond, cfg, tr, 1); err != nil {
			b.Fatal(err)
		}
	}
}
