// Package attack implements the paper's user-level RowPress programs (§6,
// Appendix G) against the simulated real system of internal/sysarch:
// double-sided aggressor-row accesses that read NUM_READS cache blocks per
// activation (keeping the row open longer — the RowPress lever), cache
// flushing, sixteen dummy rows that bypass the DIMM's TRR sampler, and
// synchronization with the refresh stream.
package attack

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/stats"
	"repro/internal/sysarch"
)

// Variant selects the access-pattern ordering.
type Variant int

// Algorithm1 (read all blocks, then flush all) and Algorithm2 (flush each
// block right after reading it, Appendix G). Algorithm 2 keeps the
// aggressor row open during the flushes, amplifying tAggON per activation.
const (
	Algorithm1 Variant = iota
	Algorithm2
)

func (v Variant) String() string {
	if v == Algorithm2 {
		return "Algorithm2"
	}
	return "Algorithm1"
}

// Config mirrors the test program's parameters (Algorithm 1's red inputs)
// plus the microarchitectural constants of the modeled machine.
type Config struct {
	NumAggrActs int // NUM_AGGR_ACTS: activations per aggressor per iteration
	NumReads    int // NUM_READS: cache blocks read per aggressor activation
	Victims     int // victim rows tested (paper: 1500)
	Windows     int // tREFI windows simulated per victim (8205 ≈ one tREFW)
	Variant     Variant

	ReadSlotNs  int // row-open time contributed by one block read
	FlushNs     int // clflushopt cost per block (off the row for Algorithm 1)
	DummyRows   int // dummy rows for TRR bypass (paper: 16)
	DummyActs   int // activations per dummy row per iteration
	DummySlotNs int // duration of one dummy activation (≈ tRC)

	// RowBufferDecoupled enables the §7.2 candidate mitigation: column
	// accesses keep hitting the decoupled row buffer, but the wordline is
	// de-asserted after charge restoration, pinning tAggON at tRAS. The
	// program's timing is unchanged — only the disturbance lever is gone.
	RowBufferDecoupled bool

	// AdaptiveHoldNs models an adaptive row-buffer management policy that
	// speculatively keeps a row open after its last access, anticipating
	// reuse (§6/§7.3: such policies "can facilitate RowPress-based
	// attacks" because the attacker controls the effective row-open time
	// without spending cache-flush work on extra reads).
	AdaptiveHoldNs int
}

// DefaultConfig returns the §6.2 methodology at a scaled victim count.
func DefaultConfig() Config {
	return Config{
		NumAggrActs: 4,
		NumReads:    16,
		Victims:     128,
		Windows:     8205, // one full refresh window of accumulation
		Variant:     Algorithm1,
		ReadSlotNs:  24,
		FlushNs:     20,
		DummyRows:   16,
		DummyActs:   2,
		DummySlotNs: 51,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumAggrActs <= 0 || c.NumReads <= 0:
		return fmt.Errorf("attack: NUM_AGGR_ACTS and NUM_READS must be positive")
	case c.Victims <= 0 || c.Windows <= 0:
		return fmt.Errorf("attack: Victims and Windows must be positive")
	case c.ReadSlotNs <= 0 || c.DummyRows < 0 || c.DummyActs < 0:
		return fmt.Errorf("attack: invalid timing constants")
	}
	return nil
}

// timing derives the iteration's time structure.
type timing struct {
	aggON     dram.TimePS // row-open time per aggressor activation
	aggPhase  dram.TimePS // duration of the aggressor access phase
	flushGap  dram.TimePS // Algorithm 1's separate flush phase
	dummyTime dram.TimePS
	iterTime  dram.TimePS
	caughtCut dram.TimePS // REF phases below this leave an aggressor tracked
}

func (c Config) timing(t dram.Timing, trrEntries int) timing {
	var tm timing
	readOpen := dram.TimePS(c.NumReads*c.ReadSlotNs) * dram.Nanosecond
	if c.Variant == Algorithm2 {
		// Flushes interleave with reads while the row stays open.
		readOpen += dram.TimePS(c.NumReads*c.FlushNs) * dram.Nanosecond
	} else {
		tm.flushGap = dram.TimePS(2*c.NumReads*c.FlushNs) * dram.Nanosecond
	}
	// An adaptive policy extends the open time after the attacker's last
	// read; the attacker simply idles while the MC speculates.
	readOpen += dram.TimePS(c.AdaptiveHoldNs) * dram.Nanosecond
	tm.aggON = readOpen
	if tm.aggON < t.TRAS {
		tm.aggON = t.TRAS
	}
	acts := 2 * c.NumAggrActs
	// The iteration occupies the bus for the full access phase even when
	// the wordline is decoupled; only the disturbance-relevant open time
	// collapses to tRAS.
	tm.aggPhase = dram.TimePS(acts) * (tm.aggON + t.TRP)
	if c.RowBufferDecoupled {
		tm.aggON = t.TRAS
	}
	tm.dummyTime = dram.TimePS(c.DummyRows*c.DummyActs*c.DummySlotNs) * dram.Nanosecond
	tm.iterTime = tm.aggPhase + tm.flushGap + tm.dummyTime
	// The TRR sampler still holds an aggressor until `entries` distinct
	// dummy rows have been activated after the aggressor phase.
	tm.caughtCut = tm.aggPhase + tm.flushGap + dram.TimePS(trrEntries*c.DummySlotNs)*dram.Nanosecond
	return tm
}

// Result is one cell of Fig. 23: total bitflips and rows with bitflips.
type Result struct {
	NumAggrActs   int
	NumReads      int
	Bitflips      int
	RowsWithFlips int
	Synced        bool // whether the pattern fits one tREFI window
	TAggON        dram.TimePS
}

// Run executes the test program for every victim row and reports Fig. 23
// counts. Victim rows are spread across the module; each victim gets a
// fresh refresh window's worth of iterations (its exposure resets at its
// periodic refresh anyway, so one window captures the steady state).
func Run(sys *sysarch.System, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	t := sys.Mod.Timing
	tm := cfg.timing(t, sys.TRREntries)
	res := Result{NumAggrActs: cfg.NumAggrActs, NumReads: cfg.NumReads, TAggON: tm.aggON}
	res.Synced = tm.fits(t)
	const bank = 0
	for v, victim := range victimRows(sys.Mod.Geo.RowsPerBank, cfg.Victims) {
		flips, err := runVictim(sys, cfg, tm, bank, victim, uint64(v))
		if err != nil {
			return Result{}, err
		}
		if flips > 0 {
			res.Bitflips += flips
			res.RowsWithFlips++
		}
	}
	return res, nil
}

// victimRows spreads n victim rows across a bank of rows rows, at least
// eight apart and clear of the bank's edges.
func victimRows(rows, n int) []int {
	step := max((rows-16)/n, 8)
	var out []int
	for v := 0; v < n && 8+v*step < rows-8; v++ {
		out = append(out, 8+v*step)
	}
	return out
}

// runVictim simulates one victim's refresh window under the access
// pattern and returns the observed bitflips.
//
// Every iteration issues the same double-sided hammer phase one period
// after the previous one, so the refresh window is one periodic run
// (dram.Module.HammerRun) between state events. The only event is a TRR
// catch: when the iteration does not fit a tREFI window, REF lands at a
// drifting phase, drawn per iteration from stats.UnitFromHash, and a
// phase that still finds an aggressor in the sampler refreshes the
// victim's neighborhood. A synchronized victim is therefore one run; an
// unsynchronized one is one run per stretch up to and including its next
// caught iteration, followed by the TRR refreshes.
func runVictim(sys *sysarch.System, cfg Config, tm timing, bank, victim int, salt uint64) (int, error) {
	mod := sys.Mod
	t := mod.Timing
	agg1, agg2 := victim-1, victim+1 // find_aggressor_rows(VICTIM)

	// initialize(VICTIM, 0x55…); initialize(AGGRESSOR…, 0xAA…)
	now := sys.Now()
	if err := mod.InitRow(now, bank, victim, 0x55); err != nil {
		return 0, err
	}
	for _, a := range []int{agg1, agg2} {
		if err := mod.InitRow(now, bank, a, 0xAA); err != nil {
			return 0, err
		}
	}

	spec := dram.HammerSpec{Bank: bank, Rows: []int{agg1, agg2}, Count: 2 * cfg.NumAggrActs, OnTime: tm.aggON}
	wpi := max(int((tm.iterTime+t.TREFI-1)/t.TREFI), 1) // tREFI windows per iteration
	iters := (cfg.Windows + wpi - 1) / wpi
	// After its hammer phase an iteration flushes and runs the dummy rows
	// (post), then idles to the REF closing its last window and waits out
	// tRFC (idle).
	post := tm.flushGap + tm.dummyTime
	idle := dram.TimePS(wpi)*t.TREFI - tm.iterTime + t.TRFC
	period := spec.TotalTime(t) + post + idle
	for i := 0; i < iters; {
		last, caught := tm.stretch(t, salt, wpi, i, iters)
		end, err := mod.HammerRun(now, spec, period, last-i+1)
		if err != nil {
			return 0, err
		}
		now = end + post
		if caught {
			// TRR preventively refreshes the tracked aggressors'
			// neighbors — including our victim.
			for _, a := range []int{agg1, agg2} {
				for d := -2; d <= 2; d++ {
					if r := a + d; d != 0 && r >= 0 && r < mod.Geo.RowsPerBank {
						if err := mod.RestoreRow(now, bank, r); err != nil {
							return 0, err
						}
					}
				}
			}
		}
		now += idle
		i = last + 1
	}
	sys.Advance(now - sys.Now())

	// record_bitflips[VICTIM] = check_bitflips(VICTIM)
	data, end, err := mod.FetchRow(now, bank, victim)
	if err != nil {
		return 0, err
	}
	sys.Advance(end - sys.Now())
	flips := 0
	for _, b := range data {
		if b != 0x55 {
			flips += popcount8(b ^ 0x55)
		}
	}
	return flips, nil
}

// stretch returns the last iteration of the run that starts at iteration
// i — the first caught one from i on, or the last of all — and whether it
// is caught. REF arrives at the end of an iteration's last window. When
// the iteration fits, the program is synchronized: the refresh lands
// after the dummy phase, the TRR sampler holds only dummies, and the real
// victims survive. When it does not fit, the phase drifts and REF can
// land while an aggressor is still among the sampler's recent rows.
func (tm timing) stretch(t dram.Timing, salt uint64, wpi, i, iters int) (last int, caught bool) {
	if tm.fits(t) {
		return iters - 1, false
	}
	for ; i < iters; i++ {
		phase := dram.TimePS(stats.UnitFromHash(stats.Combine(salt, uint64(i*wpi))) * float64(tm.iterTime))
		if phase < tm.caughtCut {
			return i, true
		}
	}
	return iters - 1, false
}

// fits reports whether one iteration fits a tREFI window.
func (tm timing) fits(t dram.Timing) bool { return tm.iterTime <= t.TREFI }

func popcount8(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// GridResult is the full Fig. 23 sweep.
type GridResult struct {
	Cells []Result
}

// StandardReads is the NUM_READS lattice of Fig. 23.
var StandardReads = []int{1, 2, 4, 8, 16, 32, 48, 64, 80, 128}

// RunGrid sweeps NUM_AGGR_ACTS ∈ {2,3,4} × NUM_READS per the §6.2
// methodology (skipping combinations whose pattern is hopelessly long, as
// the paper does: no NUM_READS > 48 at four activations, > 80 at three).
func RunGrid(sys *sysarch.System, base Config) (GridResult, error) {
	var out GridResult
	for _, cfg := range gridConfigs(base) {
		r, err := Run(sys, cfg)
		if err != nil {
			return GridResult{}, fmt.Errorf("attack: acts=%d reads=%d: %w", cfg.NumAggrActs, cfg.NumReads, err)
		}
		out.Cells = append(out.Cells, r)
	}
	return out, nil
}

// gridConfigs lists RunGrid's cells in sweep order, each base with its
// NUM_AGGR_ACTS and NUM_READS.
func gridConfigs(base Config) []Config {
	var out []Config
	for _, acts := range []int{2, 3, 4} {
		for _, reads := range StandardReads {
			if (acts == 4 && reads > 48) || (acts == 3 && reads > 80) {
				continue
			}
			cfg := base
			cfg.NumAggrActs = acts
			cfg.NumReads = reads
			out = append(out, cfg)
		}
	}
	return out
}
