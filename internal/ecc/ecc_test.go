package ecc

import (
	"testing"
	"testing/quick"

	"repro/internal/bender"
	"repro/internal/stats"
)

func TestSECDEDRoundTrip(t *testing.T) {
	var c SECDED
	f := func(data uint64) bool {
		got, status := c.Decode(c.Encode(data))
		return got == data && status == NoError
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSECDEDCorrectsAnySingleBit(t *testing.T) {
	var c SECDED
	f := func(data uint64, pos uint8) bool {
		cw := c.Encode(data)
		cw.Flip(uint(pos) % 72)
		got, status := c.Decode(cw)
		return got == data && status == Corrected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSECDEDDetectsAnyDoubleBit(t *testing.T) {
	var c SECDED
	f := func(data uint64, a, b uint8) bool {
		pa, pb := uint(a)%72, uint(b)%72
		if pa == pb {
			return true
		}
		cw := c.Encode(data)
		cw.Flip(pa)
		cw.Flip(pb)
		_, status := c.Decode(cw)
		return status == Detected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestSECDEDFailsOnHeavyWords is the §7.1 argument: words with many
// RowPress flips defeat SEC-DED — either detected-uncorrectable or, worse,
// silently miscorrected.
func TestSECDEDFailsOnHeavyWords(t *testing.T) {
	silent, detected := 0, 0
	rng := stats.NewRNG(99)
	for trial := 0; trial < 500; trial++ {
		seen := map[uint]bool{}
		var flips []uint
		for len(flips) < 5 {
			p := uint(rng.Intn(72))
			if !seen[p] {
				seen[p] = true
				flips = append(flips, p)
			}
		}
		switch EvaluateSECDED(0xDEADBEEFCAFEF00D, flips) {
		case OutcomeSilent:
			silent++
		case OutcomeDetected:
			detected++
		case OutcomeCorrected:
			t.Fatal("5-bit error pattern reported as correctly corrected")
		}
	}
	if silent == 0 {
		t.Error("no silent miscorrections over 500 5-bit patterns; expected some")
	}
	if detected == 0 {
		t.Error("no detections over 500 5-bit patterns")
	}
}

func TestChipkillClassification(t *testing.T) {
	ck := Chipkill{SymbolBits: 8} // x8 chips
	cases := []struct {
		mask uint64
		want WordOutcome
	}{
		{0, OutcomeClean},
		{0xFF, OutcomeCorrected},                   // all errors in one symbol
		{0x1_0000_0001, OutcomeDetected},           // two symbols
		{0x01_01_01_00_00_00_00_00, OutcomeSilent}, // three symbols
	}
	for _, c := range cases {
		if got := ck.Classify(c.mask); got != c.want {
			t.Errorf("Classify(%#x) = %v, want %v", c.mask, got, c.want)
		}
	}
}

func TestChipkillSymbolCount(t *testing.T) {
	ck := Chipkill{SymbolBits: 4} // x4 chips: 16 symbols
	// The paper: 25 bitflips in a 64-bit word means at least ⌈25/4⌉ = 7
	// erroneous x4 symbols.
	var mask uint64
	for i := 0; i < 25; i++ {
		mask |= 1 << i
	}
	if n := ck.ErroneousSymbols(mask); n != 7 {
		t.Fatalf("25 consecutive flips span %d x4 symbols, want 7", n)
	}
}

func TestChipkillPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Chipkill{SymbolBits: 5}.Classify(1)
}

func TestAnalyzeFlips(t *testing.T) {
	flips := []bender.Flip{
		// word (7, 0): 2 flips -> 1-2 bucket
		{LogicalRow: 7, Byte: 0, Bit: 1},
		{LogicalRow: 7, Byte: 3, Bit: 0},
		// word (7, 1): 4 flips -> 3-8 bucket
		{LogicalRow: 7, Byte: 8, Bit: 0},
		{LogicalRow: 7, Byte: 8, Bit: 1},
		{LogicalRow: 7, Byte: 9, Bit: 2},
		{LogicalRow: 7, Byte: 15, Bit: 7},
		// word (9, 0): 9 flips -> >8 bucket
		{LogicalRow: 9, Byte: 0, Bit: 0}, {LogicalRow: 9, Byte: 0, Bit: 1},
		{LogicalRow: 9, Byte: 0, Bit: 2}, {LogicalRow: 9, Byte: 0, Bit: 3},
		{LogicalRow: 9, Byte: 1, Bit: 0}, {LogicalRow: 9, Byte: 1, Bit: 1},
		{LogicalRow: 9, Byte: 1, Bit: 2}, {LogicalRow: 9, Byte: 2, Bit: 0},
		{LogicalRow: 9, Byte: 2, Bit: 1},
	}
	st := AnalyzeFlips(flips)
	if st.TotalWords != 3 || st.Words1to2 != 1 || st.Words3to8 != 1 || st.WordsOver8 != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.MaxPerWord != 9 {
		t.Fatalf("max per word = %d", st.MaxPerWord)
	}
}

func TestEvaluateCodes(t *testing.T) {
	// A 9-flip word must be beyond both SEC-DED and x8 Chipkill.
	var flips []bender.Flip
	for i := 0; i < 9; i++ {
		flips = append(flips, bender.Flip{LogicalRow: 1, Byte: i % 8, Bit: uint8(i / 8)})
	}
	out := EvaluateCodes(flips, 8)
	if out.SECDEDCorrected != 0 {
		t.Error("9-flip word cannot be genuinely corrected by SEC-DED")
	}
	if out.ChipkillBeyond != 1 {
		t.Errorf("ChipkillBeyond = %d, want 1", out.ChipkillBeyond)
	}
}
