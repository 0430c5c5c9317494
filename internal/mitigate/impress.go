package mitigate

import (
	"fmt"

	"repro/internal/dram"
)

// ImPress is an implicit row-press mitigation in the style of Qureshi et
// al. (arXiv:2407.16006): instead of deploying a separate RowPress
// defense, an existing activation-counting tracker charges each
// activation a weight proportional to how long it kept the row open, so a
// long press dwell consumes as much tracking budget as the many short
// activations it is disturbance-equivalent to. The tracker itself is a
// weighted Misra-Gries table (the same structure as Graphene); when a
// row's weighted estimate reaches Threshold its neighbors are
// preventively refreshed and the counter rebases on the spillover value.
//
// The weight of an activation open for t is 1 + floor(t/Quantum): a
// minimum-length (tRAS) activation costs 1, like any RowHammer tracker,
// and every further Quantum of open time costs one more equivalent
// activation. Quantum is the implicit exchange rate between open-time and
// activation-count damage; DefaultImPressQuantum calibrates it against
// this reproduction's disturbance model.
type ImPress struct {
	Threshold int         // weighted estimate triggering a preventive refresh
	TableSize int         // entries; fixed at construction, which sizes the table
	Quantum   dram.TimePS // open time charged as one extra activation

	misraGries
}

// DefaultImPressQuantum is the default open-time-to-activation exchange
// rate: the calibrated disturbance model puts one reference activation's
// RowHammer damage at roughly 250 ns of effective press time (per-row
// minimum press threshold ≈ 47 ms vs minimum hammer threshold ≈ 2×10⁵
// activations), so a 7.8 µs dwell is charged ≈ 32 activations.
const DefaultImPressQuantum = 250 * dram.Nanosecond

// NewImPress builds an ImPress tracker. It panics on non-positive
// parameters (configuration bug), mirroring NewGraphene.
func NewImPress(threshold, tableSize int, quantum dram.TimePS) *ImPress {
	if threshold <= 0 || tableSize <= 0 || quantum <= 0 {
		panic(fmt.Sprintf("mitigate: bad ImPress config T=%d size=%d quantum=%d",
			threshold, tableSize, quantum))
	}
	return &ImPress{
		Threshold:  threshold,
		TableSize:  tableSize,
		Quantum:    quantum,
		misraGries: newMisraGries(tableSize),
	}
}

// Name implements Mitigation.
func (im *ImPress) Name() string { return "ImPress" }

// weight converts an activation's open time into equivalent activations.
func (im *ImPress) weight(openFor dram.TimePS) int {
	if openFor <= 0 {
		return 1
	}
	return 1 + int(openFor/im.Quantum)
}

// OnActivate implements Mitigation: with no open-time information the
// activation is charged the minimum weight, degrading ImPress to a plain
// Graphene-style tracker.
func (im *ImPress) OnActivate(row int) []int { return im.OnActivateTimed(row, 0) }

// OnActivateTimed implements TimedMitigation with the weighted
// Misra-Gries update rule.
func (im *ImPress) OnActivateTimed(row int, openFor dram.TimePS) []int {
	return im.add(row, im.weight(openFor), im.Threshold, im.TableSize)
}
