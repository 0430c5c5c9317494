// Package simperf is the trace-driven multi-core DRAM performance
// simulator standing in for Ramulator in the paper's mitigation study
// (§7.3, §7.4, Appendix D): Record draws each core's synthetic workload
// stream once into a compact Trace, and a Sim replays it through an
// FR-FCFS single-channel memory controller with configurable row
// policies, periodic refresh, and pluggable RowHammer/RowPress mitigation
// mechanisms whose preventive refreshes cost real bank time. A study
// records each mix once and replays it for every policy and mechanism.
package simperf

import (
	"fmt"
	"math"
	"slices"

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
	// InstrPerCore is the retirement target per core: Record ends each
	// stream at the request that reaches it.
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

// Trace is a mix's request streams, drawn once by Record and replayed by
// every simulation of the mix: a stream depends only on its profile, the
// seed, the core index and the shape, never on timing, so the baseline,
// every tmro point and every row policy of one mix see the same requests.
type Trace struct {
	shape traceShape
	cores []core    // each core at its first fetch: its requests and workload
	rows  []bankRow // (bank, row) by dense row id
}

// traceShape is the part of a Config the streams depend on.
type traceShape struct{ banks, rowsPerBank, blocksRow, instrPerCore int }

func shapeOf(cfg Config) traceShape {
	return traceShape{cfg.Banks, cfg.RowsPerBank, cfg.BlocksRow, cfg.InstrPerCore}
}

// request is one recorded memory request, 12 bytes.
type request struct {
	gap uint32 // instructions retired since the previous request
	id  uint32 // dense row id: an index into Trace.rows
	col uint16
}

// bankRow is a row's bank and row; Record's key check bounds both below
// 2³².
type bankRow struct{ bank, row uint32 }

// Record draws each core's request stream once: core i's generator is
// seeded seed+i*0x9E37, and its stream ends at the request whose gap sum
// reaches InstrPerCore. Rows are numbered densely in order of first use
// across the mix.
func Record(cfg Config, profiles []workload.Profile, seed uint64) (*Trace, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("simperf: need at least one workload")
	}
	if cfg.RowsPerBank > 0 && cfg.Banks > math.MaxUint32/cfg.RowsPerBank {
		return nil, fmt.Errorf("simperf: %d banks × %d rows overflow the row id map's key", cfg.Banks, cfg.RowsPerBank)
	}
	if cfg.BlocksRow > math.MaxUint16+1 {
		return nil, fmt.Errorf("simperf: %d blocks per row overflow a recorded column", cfg.BlocksRow)
	}
	// Each stream holds about InstrPerCore·MPKI/1000 requests (a little
	// more: gaps round down); the mix's distinct rows are about its
	// largest working set, since the power-of-two hot-row sets nest.
	expect := func(p workload.Profile) int {
		n := int(float64(cfg.InstrPerCore) * p.LLCMPKI / 1000)
		return n + n/16 + 64
	}
	idCap := 0
	for _, p := range profiles {
		idCap = max(idCap, min(expect(p), min(p.HotRows, cfg.RowsPerBank)*cfg.Banks))
	}
	ids := make(map[uint32]uint32, idCap)
	tr := &Trace{shape: shapeOf(cfg), rows: make([]bankRow, 0, idCap)}
	for i, p := range profiles {
		gen, err := workload.NewGenerator(p, cfg.Banks, cfg.RowsPerBank, cfg.BlocksRow, seed+uint64(i)*0x9E37)
		if err != nil {
			return nil, err
		}
		reqs := make([]request, 0, max(expect(p), 0))
		for done := 0; done < cfg.InstrPerCore; {
			r := gen.Next()
			if uint64(r.InstrGap) > math.MaxUint32 {
				return nil, fmt.Errorf("simperf: %s: instruction gap %d overflows a recorded request", p.Name, r.InstrGap)
			}
			key := uint32(r.Bank*cfg.RowsPerBank + r.Row)
			id, ok := ids[key]
			if !ok {
				id = uint32(len(tr.rows))
				ids[key] = id
				tr.rows = append(tr.rows, bankRow{uint32(r.Bank), uint32(r.Row)})
			}
			reqs = append(reqs, request{gap: uint32(r.InstrGap), id: id, col: uint16(r.Col)})
			done += r.InstrGap
		}
		tr.cores = append(tr.cores, core{reqs: reqs, stats: CoreStats{Workload: p.Name}})
	}
	return tr, nil
}

type core struct {
	reqs     []request // the requests still to fetch
	stats    CoreStats
	pending  bankRow     // the request fetched last
	id       uint32      // pending's row id
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
	cores  []core
	rows   []bankRow // the trace's (bank, row) by row id

	now      dram.TimePS
	nextREF  dram.TimePS
	refCount int
	acts     []uint32 // ACTs per row id in the current tREFW window

	result Result
}

// New builds a simulator replaying tr, which must have been recorded for
// cfg's shape (Banks, RowsPerBank, BlocksRow, InstrPerCore).
func New(cfg Config, tr *Trace) (*Sim, error) {
	if shapeOf(cfg) != tr.shape {
		return nil, fmt.Errorf("simperf: config shape %+v differs from the trace's %+v", shapeOf(cfg), tr.shape)
	}
	s := &Sim{
		cfg:     cfg,
		timing:  dram.DDR4(),
		banks:   make([]memctrl.BankState, cfg.Banks),
		cores:   slices.Clone(tr.cores),
		rows:    tr.rows,
		acts:    make([]uint32, len(tr.rows)),
		nextREF: dram.DDR4().TREFI,
	}
	if cfg.NewMitigation != nil {
		s.mits = make([]mitigate.Mitigation, cfg.Banks)
		for b := range s.mits {
			s.mits[b] = cfg.NewMitigation(b)
		}
	}
	return s, nil
}

// fetch loads the next request of a core and schedules its arrival.
func (s *Sim) fetch(c *core, from dram.TimePS) {
	if len(c.reqs) == 0 {
		c.stats.Instructions = c.doneInst
		c.stats.Cycles = int64((from / instrPS)) // cycles at 4 GHz
		return
	}
	req := c.reqs[0]
	c.reqs = c.reqs[1:]
	c.pending, c.id = s.rows[req.id], req.id
	c.waiting = true
	c.readyAt = from + dram.TimePS(req.gap)*instrPS/retireWidth
	c.doneInst += int(req.gap)
}

// Run executes the simulation to completion.
func (s *Sim) Run() Result {
	for i := range s.cores {
		s.fetch(&s.cores[i], 0)
	}
	for {
		c := s.pickNext()
		if c == nil {
			break
		}
		s.serve(c)
	}
	s.result.Cores = make([]CoreStats, len(s.cores))
	for i := range s.cores {
		s.result.Cores[i] = s.cores[i].stats
	}
	return s.result
}

// pickNext implements FR-FCFS over the (at most one per core) pending
// requests: among requests that have arrived, prefer row hits, then the
// oldest; if none has arrived yet, take the earliest arrival.
func (s *Sim) pickNext() *core {
	var best *core
	bestHit := false
	for i := range s.cores {
		c := &s.cores[i]
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
	b := &s.banks[c.pending.bank]
	at := c.readyAt
	if at < s.now {
		at = s.now
	}
	return b.RowOpenFor(int(c.pending.row), at, s.cfg.Policy)
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

	bank := &s.banks[req.bank]
	done, activated := bank.Access(start, int(req.row), s.cfg.Policy, s.timing)
	if activated {
		c.stats.RowMisses++
		s.result.Activations++
		s.countACT(c.id)
		if s.mits != nil {
			victims := s.mits[req.bank].OnActivate(int(req.row))
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
			clear(s.acts)
		}
		s.nextREF += s.timing.TREFI
	}
}

// countACT counts one activation of row id in the current tREFW window,
// raises MaxRowACTsPerWindow to the row's count if it exceeds it, and
// returns that count. No catalog simulation reaches the end of its first
// window, so there the maximum covers the whole run.
func (s *Sim) countACT(id uint32) int {
	s.acts[id]++
	n := int(s.acts[id])
	if n > s.result.MaxRowACTsPerWindow {
		s.result.MaxRowACTsPerWindow = n
	}
	return n
}
