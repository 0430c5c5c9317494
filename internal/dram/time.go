// Package dram models a DDR4 DRAM module at the command/cell level: bank
// state machines with ACT/PRE timing checks, lazily allocated row storage,
// and per-row read-disturbance exposure accounting. The module issues no
// REF command of its own: callers model refresh as RestoreRow on the rows
// a REF covers, at its REF phases. The physics of how exposure turns into
// bitflips is delegated to a Disturber (see internal/disturb); this
// package stays mechanism-agnostic.
//
// All times are simulated picoseconds (TimePS). The simulated command clock
// replaces the 1.5 ns command bus of the paper's FPGA infrastructure
// (DRAM Bender, §3.1) — Go cannot time real DRAM commands, so the clock is
// explicit and fully deterministic.
package dram

import "fmt"

// TimePS is a simulated timestamp or duration in picoseconds.
type TimePS = int64

// Convenient duration units in picoseconds.
const (
	Picosecond  TimePS = 1
	Nanosecond  TimePS = 1000
	Microsecond TimePS = 1000 * Nanosecond
	Millisecond TimePS = 1000 * Microsecond
	Second      TimePS = 1000 * Millisecond
)

// Seconds converts a TimePS duration to float64 seconds.
func Seconds(t TimePS) float64 { return float64(t) / float64(Second) }

// FromSeconds converts float64 seconds to TimePS.
func FromSeconds(s float64) TimePS { return TimePS(s * float64(Second)) }

// FormatTime renders a duration with the unit the paper uses on its axes
// (ns below 1 µs, µs below 1 ms, ms otherwise).
func FormatTime(t TimePS) string {
	switch {
	case t < Microsecond:
		return fmt.Sprintf("%gns", float64(t)/float64(Nanosecond))
	case t < Millisecond:
		return fmt.Sprintf("%gus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%gms", float64(t)/float64(Millisecond))
	}
}
