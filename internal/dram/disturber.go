package dram

// BlastRadius is how many rows on each side of an aggressor accumulate
// disturbance. The paper checks three adjacent rows on each side (§4.1).
const BlastRadius = 3

// Exposure is the read-disturbance state a victim row has accumulated since
// its charge was last restored. Hammer and press contributions are kept per
// source side because the two phenomena interact with the double-sided
// access pattern differently (Obsv. 12/13): hammering from both sides is
// super-additive, pressing from both sides is sub-additive.
type Exposure struct {
	HammerAbove float64 // from aggressors at higher physical row indices
	HammerBelow float64
	PressAbove  float64
	PressBelow  float64
	Retention   float64 // temperature-weighted stress-seconds without refresh
}

// IsZero reports whether no disturbance has accumulated.
func (e Exposure) IsZero() bool {
	return e == Exposure{}
}

// NeighborData carries the current contents of the rows physically adjacent
// to a victim (nil when the neighbor has never been written). The disturb
// model uses it for the aggressor-bit coupling component of the
// data-pattern dependence (§5.3).
type NeighborData struct {
	Above []byte // row index victim+1
	Below []byte // row index victim-1
}

// Increments is the per-activation disturbance one aggressor activation
// delivers to the victims at each distance: Hammer[d] and Press[d] for
// d = 1..BlastRadius. Index 0 is always zero.
type Increments struct {
	Hammer, Press [BlastRadius + 1]float64
}

// Disturber computes read-disturbance physics for a module. Implementations
// must be pure with respect to the per-(bank,row) cell populations they
// sample, so that repeated evaluation is reproducible.
type Disturber interface {
	// Increments is the per-activation RowHammer and RowPress damage
	// delivered to the victims at every distance inside the blast radius,
	// given the aggressor's row-open time, the preceding row-off time
	// (both ps), and the chip temperature. The accrual paths call it once
	// per activation, or once per batch of identical activations. It must
	// be pure in its arguments — equal inputs give bit-equal results — so
	// an implementation may memoize it; disturb.Model does, per model.
	Increments(onTime, offTime TimePS, tempC float64) Increments
	// RetentionAccel scales wall-clock seconds into retention stress at the
	// given temperature (1.0 at the model's reference temperature).
	RetentionAccel(tempC float64) float64
	// ApplyFlips mutates data in place, flipping every cell of (bank,row)
	// whose accumulated damage under exp crosses its threshold. It returns
	// the number of bits flipped. data may be nil (uninitialized row), in
	// which case it must do nothing and return 0.
	ApplyFlips(bank, row int, data []byte, nb NeighborData, exp Exposure) int
}

// FlipProber is the optional Disturber extension for pure flip
// predicates: WouldFlip reports whether ApplyFlips on the same inputs
// would flip at least one cell, without mutating data. Models that
// implement it let Module.ProbeCheck and the copy-on-write restore copy a
// row only when a flip lands in it.
type FlipProber interface {
	WouldFlip(bank, row int, data []byte, nb NeighborData, exp Exposure) bool
}

// NopDisturber ignores all disturbance. It stands in for a hypothetical
// disturbance-free DRAM and is useful for testing the command machinery in
// isolation.
type NopDisturber struct{}

// Increments always returns zero damage.
func (NopDisturber) Increments(_, _ TimePS, _ float64) Increments { return Increments{} }

// RetentionAccel always returns 0 (cells never leak).
func (NopDisturber) RetentionAccel(float64) float64 { return 0 }

// ApplyFlips never flips anything.
func (NopDisturber) ApplyFlips(_, _ int, _ []byte, _ NeighborData, _ Exposure) int { return 0 }
