// Package disturb implements the read-disturbance physics model at the
// heart of this RowPress reproduction. It provides dram.Disturber: per-cell
// RowPress, RowHammer, and retention-failure behaviour calibrated per die
// revision (see internal/chipgen for the calibrated parameter sets).
//
// # Model
//
// Each victim cell accumulates damage per aggressor activation
//
//	damage/act = hammerWeight(cell)·hammerKernel + pressWeight(cell)·pressKernel
//
// and flips once cumulative damage crosses the cell's threshold. Press,
// hammer, and retention-weak cells are independent sparse populations drawn
// from per-die log-normal distributions, so their overlaps are near zero —
// reproducing the paper's Obsv. 7 (< 0.013 % overlap with RowHammer,
// < 0.34 % with retention failures).
//
// A Model builds a row's press, hammer or retention population in steps,
// each taken only when an evaluation of that mechanism needs it. The first
// nonzero exposure of the mechanism on the row bounds the population: a
// replay of the sampler's draws with each normal variate replaced by a
// table-read lower bound gives a floor under its weakest threshold, at a
// few hashes per draw. An exposure that reaches the floor samples the
// population in full, and one that reaches its exact weakest cell sorts
// it by threshold. Sampling is pure in (seed, mechanism, bank, row), so
// when a population is built never changes its cells or their order.
// Laziness skips the sampling for mechanisms a row is never exposed to or
// whose exposures stay below the floor — such as a probe's milliseconds
// of retention stress against thresholds of seconds — and the sort for
// populations no exposure reaches.
//
// The press kernel is ≈ linear in tAggON beyond an onset knee, which yields
// the paper's signature ACmin × tAggON ≈ const trend (log-log slope ≈ −1,
// Obsv. 3) and ACmin = 1 at tAggON ≈ tens of ms (Obsv. 2). The hammer
// kernel grows with tAggOFF and is insensitive to tAggON, matching the
// prior device-level studies the paper reconciles in §5.4.
package disturb

import (
	"fmt"

	"repro/internal/dram"
)

// ReferenceRowBits is the row size (in cells) the per-row cell-count
// parameters are quoted for: an 8 KiB DDR4 row. Models scale counts
// linearly when the simulated geometry uses smaller rows.
const ReferenceRowBits = 8192 * 8

// Params is the complete parameter set of the disturbance model for one
// die revision. All times are in seconds unless suffixed PS.
type Params struct {
	// RowHammer: cell thresholds are in units of "equivalent activations"
	// at reference conditions (tAggON = tRAS, tAggOFF = tRP, 50 °C,
	// distance 1, single-sided).
	HammerDistDecay    [dram.BlastRadius + 1]float64 // per-distance multiplier, index 1..3
	HammerOffTau       float64                       // off-time saturation constant (s)
	HammerOnBoostPerS  float64                       // small per-second boost for modest tAggON growth
	HammerOnBoostCapS  float64                       // tAggON beyond tRAS after which the boost stops growing
	HammerOnDecayTau   float64                       // long-tAggON decay constant (s)
	HammerCrossBoost   float64                       // double-sided super-additivity β
	HammerTempFactor30 float64                       // damage multiplier per +30 °C
	HammerCellsPerRow  float64                       // Poisson λ per reference row
	HammerLogMedian    float64                       // ln(median threshold) [activations]
	HammerLogSigma     float64
	HammerCplCharged   float64 // aggressor same-column bit charged
	HammerCplDischgd   float64

	// RowPress: cell thresholds are in seconds of accumulated effective
	// aggressor on-time at 50 °C, distance 1.
	PressKneeS        float64 // onset knee θ (s)
	PressTempFactor30 float64 // damage multiplier per +30 °C
	// Cross-side sub-additivity ρ: pressing from both sides is less
	// efficient per total activation than from one (the victim partially
	// recovers while the other aggressor holds the bank), so single-sided
	// RowPress overtakes double-sided once press dominates (Obsv. 13).
	PressCrossPenalty50 float64
	PressCrossPenalty80 float64
	PressDistDecay      [dram.BlastRadius + 1]float64
	PressCellsPerRow    float64
	PressLogMedian      float64 // ln(median K) [seconds]
	PressLogSigma       float64
	PressCplCharged50   float64 // aggressor-bit coupling at 50 °C
	PressCplDischgd50   float64
	PressCplCharged80   float64 // and at 80 °C (interpolated in between)
	PressCplDischgd80   float64

	// Retention: thresholds are in stress-seconds (wall seconds scaled by
	// RetentionAccel).
	RetCellsPerRow float64
	RetLogMedian   float64
	RetLogSigma    float64

	// Layout and noise.
	TrueCellFraction float64 // fraction of true cells (charged == logical 1)
	TrialJitter      float64 // per-trial log-threshold jitter σ (repeatability, App. E)
	// CellClusterProb chains vulnerable cells into the same 64-bit word
	// with this probability: weak cells are physically correlated, which
	// is why the paper observes up to 25 bitflips in a single 64-bit word
	// (§7.1, Fig. 25/26) — the property that defeats SEC-DED and Chipkill.
	CellClusterProb float64
}

// Validate reports the first implausible parameter, if any.
func (p Params) Validate() error {
	switch {
	case p.TrueCellFraction < 0 || p.TrueCellFraction > 1:
		return fmt.Errorf("disturb: TrueCellFraction %v outside [0,1]", p.TrueCellFraction)
	case p.HammerCrossBoost < 0:
		return fmt.Errorf("disturb: negative HammerCrossBoost")
	case p.PressKneeS < 0:
		return fmt.Errorf("disturb: negative PressKneeS")
	case p.PressCrossPenalty50 < 0 || p.PressCrossPenalty50 >= 1 ||
		p.PressCrossPenalty80 < 0 || p.PressCrossPenalty80 >= 1:
		return fmt.Errorf("disturb: PressCrossPenalty outside [0,1)")
	case p.HammerCellsPerRow < 0 || p.PressCellsPerRow < 0 || p.RetCellsPerRow < 0:
		return fmt.Errorf("disturb: negative cell density")
	case p.TrialJitter < 0:
		return fmt.Errorf("disturb: negative TrialJitter")
	case p.CellClusterProb < 0 || p.CellClusterProb >= 1:
		return fmt.Errorf("disturb: CellClusterProb outside [0,1)")
	}
	return nil
}

// tempInterp interpolates a coupling value between its 50 °C and 80 °C
// calibration points, clamping outside that range.
func tempInterp(v50, v80, tempC float64) float64 {
	switch {
	case tempC <= 50:
		return v50
	case tempC >= 80:
		return v80
	default:
		f := (tempC - 50) / 30
		return v50 + (v80-v50)*f
	}
}
