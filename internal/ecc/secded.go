// Package ecc implements the error-correcting codes the paper analyzes as
// RowPress mitigations (§7.1): the (72,64) SEC-DED code ubiquitous in
// server memory and a Chipkill-style symbol code — plus the per-64-bit-word
// bitflip-multiplicity analysis behind Figs. 25 and 26.
package ecc

import "math/bits"

// SECDED is the (72,64) single-error-correct, double-error-detect code:
// a (71,64) Hamming code extended with an overall parity bit.
//
// Codeword layout (bit indices 0..71): bit 0 is the overall parity; bits
// 1..71 are Hamming positions 1..71, with check bits at the power-of-two
// positions {1,2,4,8,16,32,64} and the 64 data bits filling the rest.
type SECDED struct{}

// DecodeStatus classifies a decode outcome.
type DecodeStatus int

// Decode outcomes. Miscorrection (an uncorrectable pattern that aliases a
// correctable syndrome) is what turns heavy RowPress words into silent
// data corruption.
const (
	NoError DecodeStatus = iota
	Corrected
	Detected // uncorrectable but flagged
)

func (s DecodeStatus) String() string {
	switch s {
	case NoError:
		return "no-error"
	case Corrected:
		return "corrected"
	case Detected:
		return "detected"
	default:
		return "unknown"
	}
}

// isPow2 reports whether p is a power of two (a Hamming check position).
func isPow2(p uint) bool { return p&(p-1) == 0 }

// dataPositions lists the 64 non-check Hamming positions in ascending
// order, computed once.
var dataPositions = func() [64]uint {
	var out [64]uint
	i := 0
	for p := uint(1); p <= 71; p++ {
		if !isPow2(p) {
			out[i] = p
			i++
		}
	}
	if i != 64 {
		panic("ecc: expected exactly 64 data positions")
	}
	return out
}()

// Codeword is a 72-bit SEC-DED codeword (bits 0..71 in the low bits).
type Codeword struct {
	Bits [72 / 8]byte
}

func (c *Codeword) get(i uint) bool { return c.Bits[i/8]&(1<<(i%8)) != 0 }
func (c *Codeword) flip(i uint)     { c.Bits[i/8] ^= 1 << (i % 8) }
func (c *Codeword) set(i uint, v bool) {
	if v {
		c.Bits[i/8] |= 1 << (i % 8)
	} else {
		c.Bits[i/8] &^= 1 << (i % 8)
	}
}

// Flip inverts codeword bit i (0..71); used for fault injection.
func (c *Codeword) Flip(i uint) {
	if i >= 72 {
		panic("ecc: codeword bit index out of range")
	}
	c.flip(i)
}

// Encode produces the 72-bit codeword for a 64-bit data word.
func (SECDED) Encode(data uint64) Codeword {
	var cw Codeword
	for i, pos := range dataPositions {
		cw.set(pos, data>>uint(i)&1 == 1)
	}
	// Hamming check bits: parity over covered positions.
	for _, cb := range [...]uint{1, 2, 4, 8, 16, 32, 64} {
		parity := false
		for p := uint(1); p <= 71; p++ {
			if p != cb && p&cb != 0 && cw.get(p) {
				parity = !parity
			}
		}
		cw.set(cb, parity)
	}
	// Overall parity over bits 1..71.
	overall := false
	for p := uint(1); p <= 71; p++ {
		if cw.get(p) {
			overall = !overall
		}
	}
	cw.set(0, overall)
	return cw
}

// Decode recovers the data word and classifies the error pattern. When the
// pattern has ≥3 bitflips the classification is unreliable: the code may
// report Corrected (a miscorrection — silent data corruption after a wrong
// "fix") or Detected. Callers compare the returned data against ground
// truth to detect miscorrection, as AnalyzeWord does.
func (SECDED) Decode(cw Codeword) (data uint64, status DecodeStatus) {
	syndrome := uint(0)
	for p := uint(1); p <= 71; p++ {
		if cw.get(p) {
			syndrome ^= p
		}
	}
	overall := cw.get(0)
	for p := uint(1); p <= 71; p++ {
		if cw.get(p) {
			overall = !overall
		}
	}
	// overall is now the total parity of bits 0..71: false means even
	// (consistent), true means an odd number of flipped bits.
	switch {
	case syndrome == 0 && !overall:
		status = NoError
	case syndrome == 0 && overall:
		// Error in the overall parity bit itself.
		cw.flip(0)
		status = Corrected
	case syndrome != 0 && overall:
		// Odd number of errors; assume single and correct it.
		if syndrome <= 71 {
			cw.flip(syndrome)
			status = Corrected
		} else {
			status = Detected
		}
	default: // syndrome != 0, even parity: double error
		status = Detected
	}
	for i, pos := range dataPositions {
		if cw.get(pos) {
			data |= 1 << uint(i)
		}
	}
	return data, status
}

// WordOutcome is the ground-truth-aware result of pushing an erroneous
// word through a code.
type WordOutcome int

// Outcomes against ground truth.
const (
	OutcomeClean     WordOutcome = iota // no flips
	OutcomeCorrected                    // decoder returned the original data
	OutcomeDetected                     // decoder flagged an uncorrectable error
	OutcomeSilent                       // decoder returned wrong data without flagging
)

func (o WordOutcome) String() string {
	switch o {
	case OutcomeClean:
		return "clean"
	case OutcomeCorrected:
		return "corrected"
	case OutcomeDetected:
		return "detected"
	default:
		return "silent-corruption"
	}
}

// EvaluateSECDED encodes data, applies the given codeword-bit flips, and
// classifies the end-to-end outcome against ground truth.
func EvaluateSECDED(data uint64, flipBits []uint) WordOutcome {
	if len(flipBits) == 0 {
		return OutcomeClean
	}
	var c SECDED
	cw := c.Encode(data)
	for _, b := range flipBits {
		cw.Flip(b)
	}
	got, status := c.Decode(cw)
	switch {
	case status == Detected:
		return OutcomeDetected
	case got == data:
		return OutcomeCorrected
	default:
		return OutcomeSilent
	}
}

// popcount64 counts set bits (helper shared by analysis code).
func popcount64(v uint64) int { return bits.OnesCount64(v) }
