// Package bender is this reproduction's stand-in for the FPGA-based DRAM
// testing infrastructure of §3.1 (DRAM Bender on a Xilinx Alveo U200 plus
// a PID-controlled heater rig): a test bench that owns a simulated module,
// its disturbance model, a thermal controller, and the module's in-DRAM
// row scrambling, and exposes the operations the paper's test programs are
// built from — fill rows with a data pattern, run a hammer/press loop with
// precise timing, read rows back, and diff for bitflips.
//
// Following the paper's methodology, the bench keeps periodic refresh
// disabled during test programs (to keep timings precise and to expose the
// chip's circuit-level behaviour) and experiments are expected to stay
// within the refresh window.
package bender

import (
	"fmt"

	"repro/internal/addrmap"
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
	RowMap  addrmap.RowMap // ground-truth hardware scrambling
	Thermal *thermal.Controller

	now   dram.TimePS
	bank  int // bank under test (the paper uses bank 1)
	tempC float64
}

// Option configures a Bench.
type Option func(*benchConfig)

type benchConfig struct {
	geo   dram.Geometry
	bank  int
	tempC float64
}

// WithGeometry overrides the module geometry.
func WithGeometry(geo dram.Geometry) Option { return func(c *benchConfig) { c.geo = geo } }

// WithBank selects the bank under test.
func WithBank(bank int) Option { return func(c *benchConfig) { c.bank = bank } }

// WithTemperature sets the initial target temperature (°C).
func WithTemperature(t float64) Option { return func(c *benchConfig) { c.tempC = t } }

// New builds a bench for the given module spec. The module's in-DRAM row
// scrambling scheme is a deterministic property of the module (derived
// from its identity), as on real chips.
func New(spec chipgen.ModuleSpec, opts ...Option) (*Bench, error) {
	cfg := benchConfig{geo: dram.DefaultGeometry(), bank: 1, tempC: 50}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.bank < 0 || cfg.bank >= cfg.geo.Banks {
		return nil, fmt.Errorf("bender: bank %d outside geometry with %d banks", cfg.bank, cfg.geo.Banks)
	}
	kind := addrmap.RowMapKind(spec.Seed() % 3)
	rowMap, err := addrmap.NewRowMap(kind, cfg.geo.RowsPerBank)
	if err != nil {
		return nil, fmt.Errorf("bender: row map: %w", err)
	}
	mod, model := spec.NewModule(cfg.geo, cfg.tempC)
	b := &Bench{
		Spec:    spec,
		Mod:     mod,
		Model:   model,
		RowMap:  rowMap,
		Thermal: thermal.NewController(),
		bank:    cfg.bank,
		tempC:   cfg.tempC,
	}
	if _, err := b.Thermal.Settle(cfg.tempC, 0.5, 5); err != nil {
		return nil, fmt.Errorf("bender: initial thermal settle: %w", err)
	}
	return b, nil
}

// Now returns the bench clock.
func (b *Bench) Now() dram.TimePS { return b.now }

// Bank returns the bank under test.
func (b *Bench) Bank() int { return b.bank }

// Temperature returns the current chip temperature.
func (b *Bench) Temperature() float64 { return b.tempC }

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
	b.tempC = target
	b.Mod.SetTemperature(b.now, target)
	b.Model.SetEvalTemperature(target)
	return nil
}

// SetTrial selects the measurement repetition (threshold jitter salt).
func (b *Bench) SetTrial(trial uint64) { b.Model.SetTrial(trial) }

// WriteRow fills a logical row with the byte value, resetting its
// disturbance state (bulk initialization, outside the measured commands).
func (b *Bench) WriteRow(logicalRow int, fill byte) error {
	phys := b.RowMap.Physical(logicalRow)
	if err := b.Mod.InitRow(b.now, b.bank, phys, fill); err != nil {
		return err
	}
	b.now += dram.Microsecond
	return nil
}

// ReadRow activates a logical row (materializing any pending disturbance)
// and returns its contents.
func (b *Bench) ReadRow(logicalRow int) ([]byte, error) {
	phys := b.RowMap.Physical(logicalRow)
	data, end, err := b.Mod.FetchRow(b.now, b.bank, phys)
	if err != nil {
		return nil, err
	}
	b.now = end
	return data, nil
}

// Hammer runs the access pattern loop over the logical aggressor rows with
// per-activation open time onTime and extra off time extraOff, totalling
// count activations. It uses the batched fast path.
func (b *Bench) Hammer(logicalRows []int, count int, onTime, extraOff dram.TimePS) error {
	phys := make([]int, len(logicalRows))
	for i, r := range logicalRows {
		phys[i] = b.RowMap.Physical(r)
	}
	end, err := b.Mod.HammerBatch(b.now, dram.HammerSpec{
		Bank: b.bank, Rows: phys, Count: count, OnTime: onTime, ExtraOff: extraOff,
	})
	if err != nil {
		return err
	}
	b.now = end
	return nil
}

// Flip records one observed bitflip.
type Flip struct {
	LogicalRow int
	Byte       int
	Bit        uint8
	From       bool // original bit value (true = 1)
}

// CheckRow reads a logical row and diffs it against the expected fill byte,
// returning all bitflips.
func (b *Bench) CheckRow(logicalRow int, expected byte) ([]Flip, error) {
	data, err := b.ReadRow(logicalRow)
	if err != nil {
		return nil, err
	}
	var flips []Flip
	for i, got := range data {
		diff := got ^ expected
		if diff == 0 {
			continue
		}
		for bit := uint8(0); bit < 8; bit++ {
			if diff&(1<<bit) != 0 {
				flips = append(flips, Flip{
					LogicalRow: logicalRow,
					Byte:       i,
					Bit:        bit,
					From:       expected&(1<<bit) != 0,
				})
			}
		}
	}
	return flips, nil
}
