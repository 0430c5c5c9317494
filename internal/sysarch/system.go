// Package sysarch models the real DDR4-based system of the paper's §6
// demonstration: an Intel Comet-Lake-like processor (4 GHz, open-row
// FR-FCFS memory controller) attached to a TRR-protected DDR4 DIMM. The
// attack in internal/attack drives this model; the latency-probe path
// reproduces the §6.3 tAggON verification (Fig. 24).
package sysarch

import (
	"math"

	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/stats"
)

// CPU timing constants for the latency model (a 4 GHz Comet Lake-like
// part: cycles = ns × 4).
const (
	CyclesPerNs = 4
	// RowHitNs is the load-to-use latency of an LLC-miss that hits an open
	// DRAM row; RowMissExtraNs is the added ACT+PRE penalty. The ~30-cycle
	// gap between the two is what Fig. 24 measures.
	RowHitNs       = 50
	RowMissExtraNs = 7 // ns: tRP + tRCD on the critical path ≈ 30 cycles
	CacheHitCycles = 40
)

// DemoDIMMParams returns the disturbance parameters of the demonstration
// DIMM (a Samsung 8Gb C-die module, §6.1). The thresholds are tuned so the
// real-system experiment reproduces Fig. 23's shape: conventional
// RowHammer stays under the flip threshold within a refresh window, while
// multi-cache-block access patterns (large tAggON) flip ~10 % of victims.
func DemoDIMMParams() disturb.Params {
	p := disturb.DefaultParams()
	// Hammer thresholds sit above the ~180K effective activations a full
	// TRR-bypassed refresh window of double-sided hammering delivers at two
	// activations per iteration, so conventional RowHammer barely dents the
	// DIMM (Fig. 23: 0 flips at NUM_AGGR_ACTS ∈ {2,3}, a handful at 4).
	p.HammerCellsPerRow = 48
	p.HammerLogMedian = 15.05 // tail calibrated to ~0.5 % of rows at ACTS=4
	p.HammerLogSigma = 0.6
	// Sparse press-weak cells with thresholds around the ~7 ms exposure the
	// peak RowPress configuration accumulates per refresh window.
	p.PressCellsPerRow = 3
	p.PressLogMedian = -3.94 // median K ≈ 19.5 ms
	p.PressLogSigma = 0.8
	return p
}

// System is the demonstration machine: one DDR4 channel with an open-row
// memory controller, TRR in the DIMM, and periodic refresh.
type System struct {
	Mod   *dram.Module
	Model *disturb.Model

	TRREntries int // in-DRAM sampler size

	now      dram.TimePS
	openRow  []int // per-bank open row, -1 when precharged
	noiseRNG *stats.RNG
}

// NewDemoSystem builds the §6.1 system over the given geometry. seed
// drives the DIMM's chip-to-chip variation.
func NewDemoSystem(geo dram.Geometry, seed uint64) *System {
	model := disturb.NewModel(DemoDIMMParams(), geo, seed)
	// Systems run warmer than the 50 °C characterization baseline.
	const tempC = 60
	model.SetEvalTemperature(tempC)
	mod := dram.NewModule(geo, dram.DDR4(), tempC, model)
	open := make([]int, geo.Banks)
	for i := range open {
		open[i] = -1
	}
	return &System{
		Mod:        mod,
		Model:      model,
		TRREntries: 4,
		openRow:    open,
		noiseRNG:   stats.NewRNG(seed ^ 0x5A5A),
	}
}

// Now returns the system clock (simulated picoseconds).
func (s *System) Now() dram.TimePS { return s.now }

// Advance moves the clock forward.
func (s *System) Advance(d dram.TimePS) {
	if d > 0 {
		s.now += d
	}
}

// OpenRow returns the open row of a bank (-1 when precharged).
func (s *System) OpenRow(bank int) int { return s.openRow[bank] }

// AccessBlock performs one LLC-missing load to (bank, row): the memory
// controller opens the row if needed (closing any conflicting open row —
// this is where an aggressor's tAggON ends and its disturbance lands) and
// serves the block from the row buffer. It returns the load latency in CPU
// cycles. Open-row policy: the row stays open afterwards.
func (s *System) AccessBlock(bank, row int) (int, error) {
	latencyNs := float64(RowHitNs)
	if s.openRow[bank] != row {
		if err := s.CloseRow(bank); err != nil {
			return 0, err
		}
		// tRP elapses before the ACT, then the activation penalty shows up
		// in the load latency.
		s.now += s.Mod.Timing.TRP
		if err := s.Mod.Activate(s.now, bank, row); err != nil {
			return 0, err
		}
		s.openRow[bank] = row
		latencyNs += RowMissExtraNs
	}
	s.now += dram.TimePS(latencyNs) * dram.Nanosecond / 2 // pipelined occupancy ≈ half the latency
	// Measurement noise: ±2 cycles of scheduling jitter.
	noise := (s.noiseRNG.Float64() - 0.5) * 4
	return int(math.Round(latencyNs*CyclesPerNs + noise)), nil
}

// CloseRow precharges the bank's open row, if any. The elapsed open time
// becomes the closing row's tAggON in the disturbance model.
func (s *System) CloseRow(bank int) error {
	if s.openRow[bank] < 0 {
		return nil
	}
	// Respect tRAS: a row cannot close earlier than tRAS after opening.
	preAt := s.now
	if err := s.Mod.Precharge(preAt, bank); err != nil {
		var te *dram.TimingError
		if asTimingErr(err, &te) {
			// Too early: wait out tRAS.
			preAt = s.now + s.Mod.Timing.TRAS
			if err2 := s.Mod.Precharge(preAt, bank); err2 != nil {
				return err2
			}
			s.now = preAt
		} else {
			return err
		}
	}
	s.openRow[bank] = -1
	return nil
}

func asTimingErr(err error, target **dram.TimingError) bool {
	te, ok := err.(*dram.TimingError)
	if ok {
		*target = te
	}
	return ok
}

// ProbeRowLatencies reproduces the §6.3 verification program: ensure the
// probed row is closed (by touching another row in the same bank), then
// access every cache block of the row in sequence, returning the per-block
// latencies in cycles. The first access pays the activation penalty; the
// rest hit the open row — proof that the MC keeps the row open.
func (s *System) ProbeRowLatencies(bank, row int) ([]int, error) {
	other := (row + s.Mod.Geo.RowsPerBank/2) % s.Mod.Geo.RowsPerBank
	if _, err := s.AccessBlock(bank, other); err != nil {
		return nil, err
	}
	blocks := s.Mod.Geo.BlocksPerRow()
	lat := make([]int, 0, blocks)
	for b := 0; b < blocks; b++ {
		l, err := s.AccessBlock(bank, row)
		if err != nil {
			return nil, err
		}
		lat = append(lat, l)
	}
	return lat, nil
}
