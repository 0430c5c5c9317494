// Package characterize implements the paper's RowPress/RowHammer
// characterization methodology (§4, §5): the 1 %-accuracy bisection search
// for ACmin, the tAggONmin search, bit-error-rate measurements for the
// RowPress-ONOFF pattern, vulnerable-cell overlap analysis against
// RowHammer and retention failures, bitflip directionality, data-pattern
// sensitivity, and repeatability — everything the evaluation figures are
// built from.
package characterize

import (
	"fmt"

	"repro/internal/dram"
)

// Sidedness selects the access pattern family.
type Sidedness int

// Single-sided (Fig. 5) and double-sided (Fig. 16) access patterns.
const (
	SingleSided Sidedness = iota
	DoubleSided
)

// String returns the paper's label.
func (s Sidedness) String() string {
	if s == DoubleSided {
		return "Double-Sided"
	}
	return "Single-Sided"
}

// Config controls a characterization run. The defaults mirror §4.1 at a
// scale that completes quickly; the paper-scale values are in comments.
type Config struct {
	Geometry   dram.Geometry
	Bank       int
	RowsToTest int              // tested row locations (paper: 3072)
	TimeBudget dram.TimePS      // per-measurement command-stream budget (paper: 60 ms)
	Pattern    dram.DataPattern // §4.1: checkerboard by default
	Trials     int              // repetitions, min taken (paper: 5)
	Accuracy   float64          // bisection termination, fraction (paper: 0.01)
	Sided      Sidedness
}

// DefaultConfig returns the scaled default configuration.
func DefaultConfig() Config {
	return Config{
		Geometry:   dram.DefaultGeometry(),
		Bank:       1,
		RowsToTest: 48,
		TimeBudget: 60 * dram.Millisecond,
		Pattern:    dram.CheckerBoard,
		Trials:     5,
		Accuracy:   0.01,
		Sided:      SingleSided,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Geometry.Validate(); err != nil {
		return err
	}
	switch {
	case c.RowsToTest <= 0:
		return fmt.Errorf("characterize: RowsToTest must be positive")
	case c.TimeBudget <= 0:
		return fmt.Errorf("characterize: TimeBudget must be positive")
	case c.Trials <= 0:
		return fmt.Errorf("characterize: Trials must be positive")
	case c.Accuracy <= 0 || c.Accuracy >= 1:
		return fmt.Errorf("characterize: Accuracy must be in (0,1)")
	}
	return nil
}

// StandardTAggONs is the sweep lattice used across the paper's figures,
// from tRAS (conventional RowHammer) up to the extreme 30 ms.
var StandardTAggONs = []dram.TimePS{
	36 * dram.Nanosecond,
	66 * dram.Nanosecond,
	96 * dram.Nanosecond,
	186 * dram.Nanosecond,
	336 * dram.Nanosecond,
	636 * dram.Nanosecond,
	1536 * dram.Nanosecond,
	7800 * dram.Nanosecond, // tREFI
	15 * dram.Microsecond,
	30 * dram.Microsecond,
	70200 * dram.Nanosecond, // 9 × tREFI
	300 * dram.Microsecond,
	1500 * dram.Microsecond,
	6 * dram.Millisecond,
	30 * dram.Millisecond,
}

// DataPatternTAggONs is the reduced lattice of §5.3 (Fig. 19/20).
var DataPatternTAggONs = []dram.TimePS{
	36 * dram.Nanosecond,
	66 * dram.Nanosecond,
	636 * dram.Nanosecond,
	7800 * dram.Nanosecond,
	70200 * dram.Nanosecond,
	300 * dram.Microsecond,
	6 * dram.Millisecond,
}

// testedLocations spreads n tested row locations across the bank, keeping
// enough spacing that the blast radii of neighboring locations never
// interact, and staying clear of the array edges.
func testedLocations(geo dram.Geometry, n int) []int {
	const margin = 8
	usable := geo.RowsPerBank - 2*margin
	if usable <= 0 {
		return nil
	}
	if n > usable/16 {
		n = usable / 16
	}
	if n <= 0 {
		n = 1
	}
	locs := make([]int, 0, n)
	step := usable / n
	if step < 16 {
		step = 16
	}
	for i := 0; i < n; i++ {
		loc := margin + i*step
		if loc >= geo.RowsPerBank-margin {
			break
		}
		locs = append(locs, loc)
	}
	return locs
}

// TestedLocations exposes the location picker for callers composing their
// own experiments (the ECC analysis, examples).
func TestedLocations(geo dram.Geometry, n int) []int {
	return testedLocations(geo, n)
}

// site describes one tested location's aggressor and victim rows, all in
// physical row coordinates.
type site struct {
	loc        int
	aggressors []int
	victims    []int
}

// siteFor constructs the access-pattern geometry of §4.1/§5.2 around a
// physical location: single-sided hammers the location itself and checks
// ±1..3; double-sided hammers loc±1 and checks the middle row plus three
// rows beyond each aggressor.
func siteFor(loc int, sided Sidedness) site {
	s := site{loc: loc}
	switch sided {
	case SingleSided:
		s.aggressors = []int{loc}
		for d := 1; d <= dram.BlastRadius; d++ {
			s.victims = append(s.victims, loc-d, loc+d)
		}
	case DoubleSided:
		s.aggressors = []int{loc - 1, loc + 1}
		s.victims = append(s.victims, loc)
		for d := 2; d <= dram.BlastRadius+1; d++ {
			s.victims = append(s.victims, loc-d, loc+d)
		}
	}
	return s
}
