// Package stats provides the deterministic random sampling, descriptive
// statistics, and regression helpers used throughout the RowPress
// reproduction. All randomness is derived from explicit 64-bit seeds via
// SplitMix64 so every experiment is exactly reproducible.
package stats

import "math"

// Mix64 hashes x through one SplitMix64 round without carrying state.
// It is the building block for position-addressed sampling: hashing a
// (module, bank, row, column, stream) tuple yields the same value forever.
func Mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Combine folds several values into a single hash. The fold is order
// sensitive, so Combine(a, b) != Combine(b, a) in general.
func Combine(vs ...uint64) uint64 {
	h := uint64(0x8EBC6AF09C88C6E3)
	for _, v := range vs {
		h = Mix64(h ^ v)
	}
	return h
}

// RNG is a small deterministic generator around SplitMix64.
// The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// State returns the generator's current internal state, for
// checkpoint/restore of consumers that must replay deterministically.
func (r *RNG) State() uint64 { return r.state }

// SetState rewinds (or advances) the generator to a previously captured
// state.
func (r *RNG) SetState(s uint64) { r.state = s }

// Uint64 returns the next raw 64-bit value: the SplitMix64 stream, whose
// n-th output is Mix64 of the seed advanced n-1 golden-ratio steps.
func (r *RNG) Uint64() uint64 {
	v := Mix64(r.state)
	r.state += 0x9E3779B97F4A7C15
	return v
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Poisson returns a Poisson variate with mean lambda. For large lambda it
// falls back to a normal approximation, which is adequate for cell-count
// sampling.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 64 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64()))
		if n < 0 {
			n = 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// UnitFromHash maps a hash value to a uniform float64 in (0, 1), never
// returning exactly 0 so it can feed inverse-CDF transforms safely.
func UnitFromHash(h uint64) float64 {
	u := float64(h>>11) / (1 << 53)
	if u <= 0 {
		return 0.5 / (1 << 53)
	}
	return u
}

// NormalFromHash derives a standard normal variate from a single hash by
// splitting it into two uniforms (Box-Muller). Deterministic per hash.
func NormalFromHash(h uint64) float64 {
	u1 := UnitFromHash(h)
	u2 := UnitFromHash(Mix64(h))
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
