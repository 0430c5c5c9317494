// Package bender is this reproduction's stand-in for the FPGA-based DRAM
// testing infrastructure of §3.1 (DRAM Bender on a Xilinx Alveo U200 plus
// a PID-controlled heater rig): a test bench that owns a simulated module,
// its disturbance model, a thermal controller, the bench clock and the
// measurement-repetition salt. Test programs address the module in
// physical rows — the paper picks aggressors and victims after reverse-
// engineering each module's row scrambling — and run the §4.1 loop (fill,
// hammer or press, check) through the characterize package's prober.
//
// Following the paper's methodology, the bench keeps periodic refresh
// disabled during test programs (to keep timings precise and to expose the
// chip's circuit-level behaviour) and experiments are expected to stay
// within the refresh window.
package bender

import (
	"fmt"

	"repro/internal/chipgen"
	"repro/internal/disturb"
	"repro/internal/dram"
	"repro/internal/thermal"
)

// Bench wires one module under test to the measurement apparatus.
type Bench struct {
	Spec    chipgen.ModuleSpec
	Mod     *dram.Module
	Model   *disturb.Model
	Thermal *thermal.Controller

	now  dram.TimePS
	bank int // bank under test (the paper uses bank 1)
}

// New builds a bench for the given module spec on geometry geo, testing
// bank at an initial target temperature of tempC °C.
func New(spec chipgen.ModuleSpec, geo dram.Geometry, bank int, tempC float64) (*Bench, error) {
	if bank < 0 || bank >= geo.Banks {
		return nil, fmt.Errorf("bender: bank %d outside geometry with %d banks", bank, geo.Banks)
	}
	mod, model := spec.NewModule(geo, tempC)
	b := &Bench{
		Spec:    spec,
		Mod:     mod,
		Model:   model,
		Thermal: thermal.NewController(),
		bank:    bank,
	}
	if _, err := b.Thermal.Settle(tempC, 0.5, 5); err != nil {
		return nil, fmt.Errorf("bender: initial thermal settle: %w", err)
	}
	return b, nil
}

// Now returns the bench clock.
func (b *Bench) Now() dram.TimePS { return b.now }

// Bank returns the bank under test.
func (b *Bench) Bank() int { return b.bank }

// Advance moves the bench clock forward by d.
func (b *Bench) Advance(d dram.TimePS) {
	if d > 0 {
		b.now += d
	}
}

// SetTemperature drives the heater rig to target °C and blocks (in
// simulated time) until it settles, then informs the module.
func (b *Bench) SetTemperature(target float64) error {
	settle, err := b.Thermal.Settle(target, 0.5, 10)
	if err != nil {
		return err
	}
	b.now += dram.FromSeconds(settle)
	b.Mod.SetTemperature(b.now, target)
	b.Model.SetEvalTemperature(target)
	return nil
}

// SetTrial selects the measurement repetition (threshold jitter salt).
func (b *Bench) SetTrial(trial uint64) { b.Model.SetTrial(trial) }

// Flip records one observed bitflip.
type Flip struct {
	LogicalRow int // row address: physical, as test programs address rows
	Byte       int
	Bit        uint8
	From       bool // original bit value (true = 1)
}
