// Package simperf is the trace-driven multi-core DRAM performance
// simulator standing in for Ramulator in the paper's mitigation study
// (§7.3, §7.4, Appendix D): cores replay synthetic workload traces through
// an FR-FCFS single-channel memory controller with configurable row
// policies, periodic refresh, and pluggable RowHammer/RowPress mitigation
// mechanisms whose preventive refreshes cost real bank time.
package simperf

import (
	"fmt"
	"math"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigate"
	"repro/internal/workload"
)

// CPU clock: 4 GHz out-of-order core (§7.4 configuration), so one
// instruction retires in 250 ps at peak.
const (
	cpuFreqGHz = 4
	instrPS    = dram.TimePS(250)
	// retireWidth approximates the core's non-memory IPC.
	retireWidth = 4
)

// Config describes one simulation.
type Config struct {
	Banks       int
	RowsPerBank int
	BlocksRow   int
	Policy      memctrl.RowPolicy
	// NewMitigation builds a per-bank mitigation instance; nil = none.
	NewMitigation func(bank int) mitigate.Mitigation
	// InstrPerCore is the retirement target per core.
	InstrPerCore int
}

// DefaultConfig mirrors the paper's simulated system scaled down: one
// channel, 8 banks.
func DefaultConfig() Config {
	return Config{
		Banks:        8,
		RowsPerBank:  4096,
		BlocksRow:    128,
		Policy:       memctrl.OpenRow(),
		InstrPerCore: 2_000_000,
	}
}

// CoreStats reports one core's outcome.
type CoreStats struct {
	Workload     string
	Instructions int
	Cycles       int64
	RowHits      int
	RowMisses    int
}

// IPC returns instructions per cycle.
func (c CoreStats) IPC() float64 {
	if c.Cycles == 0 {
		return 0
	}
	return float64(c.Instructions) / float64(c.Cycles)
}

// RowHitRate returns the fraction of requests that hit an open row.
func (c CoreStats) RowHitRate() float64 {
	total := c.RowHits + c.RowMisses
	if total == 0 {
		return 0
	}
	return float64(c.RowHits) / float64(total)
}

// Result is a full simulation outcome.
type Result struct {
	Cores               []CoreStats
	PreventiveRefreshes uint64
	Activations         uint64
	// MaxRowACTsPerWindow is the largest per-row activation count observed
	// in any tREFW window (Fig. 38's metric). At every catalog scale a
	// simulation ends inside its first 64 ms window (the longest, at scale
	// 1, ends by ~13 ms simulated), so there it is the whole-run maximum.
	MaxRowACTsPerWindow int
}

// WeightedSpeedup computes Σ IPC_shared(i)/IPC_alone(i) given the
// standalone IPCs (§7.4 metric for multiprogrammed workloads).
func (r Result) WeightedSpeedup(alone []float64) float64 {
	ws := 0.0
	for i, c := range r.Cores {
		if i < len(alone) && alone[i] > 0 {
			ws += c.IPC() / alone[i]
		}
	}
	return ws
}

type core struct {
	gen      *workload.Generator
	stats    CoreStats
	pending  workload.Request
	waiting  bool        // pending holds a request not yet served
	readyAt  dram.TimePS // when the pending request reaches the controller
	doneInst int
}

// Sim is the simulator instance.
type Sim struct {
	cfg    Config
	timing dram.Timing
	banks  []memctrl.BankState
	mits   []mitigate.Mitigation
	cores  []*core

	now      dram.TimePS
	nextREF  dram.TimePS
	refCount int
	acts     actCounter // ACTs per bank*RowsPerBank+row in the current tREFW window

	result Result
}

// New builds a simulator for the given workloads (one per core).
func New(cfg Config, profiles []workload.Profile, seed uint64) (*Sim, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("simperf: need at least one workload")
	}
	if cfg.RowsPerBank > 0 && cfg.Banks > maxRowKeys/cfg.RowsPerBank {
		return nil, fmt.Errorf("simperf: %d banks × %d rows overflow the ACT counter's key", cfg.Banks, cfg.RowsPerBank)
	}
	s := &Sim{
		cfg:     cfg,
		timing:  dram.DDR4(),
		banks:   make([]memctrl.BankState, cfg.Banks),
		nextREF: dram.DDR4().TREFI,
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
		c := &core{gen: gen}
		c.stats.Workload = p.Name
		s.cores = append(s.cores, c)
	}
	return s, nil
}

// fetch loads the next request of a core and schedules its arrival.
func (s *Sim) fetch(c *core, from dram.TimePS) {
	if c.doneInst >= s.cfg.InstrPerCore {
		c.stats.Instructions = c.doneInst
		c.stats.Cycles = int64((from / instrPS)) // cycles at 4 GHz
		return
	}
	c.pending = c.gen.Next()
	c.waiting = true
	c.readyAt = from + dram.TimePS(c.pending.InstrGap)*instrPS/retireWidth
	c.doneInst += c.pending.InstrGap
}

// Run executes the simulation to completion.
func (s *Sim) Run() Result {
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
	return s.result
}

// pickNext implements FR-FCFS over the (at most one per core) pending
// requests: among requests that have arrived, prefer row hits, then the
// oldest; if none has arrived yet, take the earliest arrival.
func (s *Sim) pickNext() *core {
	var best *core
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

func (s *Sim) isHit(c *core) bool {
	b := &s.banks[c.pending.Bank]
	at := c.readyAt
	if at < s.now {
		at = s.now
	}
	return b.RowOpenFor(c.pending.Row, at, s.cfg.Policy)
}

// serve processes one request end to end.
func (s *Sim) serve(c *core) {
	req := c.pending
	c.waiting = false
	start := c.readyAt
	if start < s.now {
		start = s.now
	}
	s.processRefreshes(start)

	bank := &s.banks[req.Bank]
	done, activated := bank.Access(start, req.Row, s.cfg.Policy, s.timing)
	if activated {
		c.stats.RowMisses++
		s.result.Activations++
		s.countACT(req.Bank, req.Row)
		if s.mits != nil {
			victims := s.mits[req.Bank].OnActivate(req.Row)
			if len(victims) > 0 {
				// Preventive refreshes occupy the bank for tRC each and
				// close the row buffer — this is the mitigation's cost.
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

// processRefreshes applies all REF commands due by time t: every tREFI all
// banks lose tRFC and their row buffers close.
func (s *Sim) processRefreshes(t dram.TimePS) {
	for s.nextREF <= t {
		for b := range s.banks {
			s.banks[b].Preempt(s.nextREF + s.timing.TRFC)
		}
		s.refCount++
		if s.refCount%s.timing.RefreshesPerWindow() == 0 {
			// A full refresh window elapsed.
			for _, m := range s.mits {
				m.OnRefreshWindow()
			}
			s.flushACTWindow()
		}
		s.nextREF += s.timing.TREFI
	}
}

// countACT counts one activation of (bank, row) in the current tREFW
// window, raises MaxRowACTsPerWindow to the row's count if it exceeds it,
// and returns that count. No catalog simulation reaches the end of its
// first window, so there the maximum covers the whole run.
func (s *Sim) countACT(bank, row int) int {
	n := s.acts.add(uint32(bank*s.cfg.RowsPerBank + row))
	if n > s.result.MaxRowACTsPerWindow {
		s.result.MaxRowACTsPerWindow = n
	}
	return n
}

func (s *Sim) flushACTWindow() {
	s.acts.reset()
}

// maxRowKeys bounds Banks×RowsPerBank: a row key is bank*RowsPerBank+row,
// stored plus one in a uint32 slot.
const maxRowKeys = math.MaxUint32

// actCounter counts activations per row key: an open-addressed table with
// linear probing, so an ACT costs one probe and no allocation. It starts
// at actCounterMinSlots slots, doubles when half full, and reset clears it
// in place, keeping its capacity for the next window.
type actCounter struct {
	slots []actSlot // len is zero or a power of two
	used  int
}

// actSlot holds one row's count; key is the row key plus one, so a zero
// slot is empty.
type actSlot struct{ key, n uint32 }

const actCounterMinSlots = 16

// add counts one activation of key and returns its count.
func (t *actCounter) add(key uint32) int {
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
	}
	sl := t.slot(key + 1)
	if sl.key == 0 {
		sl.key = key + 1
		t.used++
	}
	sl.n++
	return int(sl.n)
}

// slot returns the slot holding stored key k, or the empty slot where
// linear probing from k's hash ends.
func (t *actCounter) slot(k uint32) *actSlot {
	mask := uint32(len(t.slots) - 1)
	i := actHash(k) & mask
	for t.slots[i].key != k && t.slots[i].key != 0 {
		i = (i + 1) & mask
	}
	return &t.slots[i]
}

// grow doubles the table (or allocates its first slots) and reinserts
// every counted key.
func (t *actCounter) grow() {
	old := t.slots
	t.slots = make([]actSlot, max(2*len(old), actCounterMinSlots))
	for _, sl := range old {
		if sl.key != 0 {
			*t.slot(sl.key) = sl
		}
	}
}

func (t *actCounter) reset() {
	clear(t.slots)
	t.used = 0
}

// actHash spreads row keys, which are strided multiples of a bank's hot-row
// spacing, over the table: a Fibonacci multiply folded so the low bits see
// the high ones.
func actHash(key uint32) uint32 {
	h := key * 0x9E3779B9
	return h ^ h>>16
}
