// Quickstart: open a simulated DDR4 module from the paper's chip
// catalogue, press a row (one long activation), and watch physically
// adjacent rows flip — the RowPress phenomenon in one short program.
package main

import (
	"fmt"
	"io"
	"log"
	"math/bits"
	"os"

	"repro/internal/chipgen"
	"repro/internal/dram"
)

const (
	bank      = 1    // the bank the paper tests
	firstAggr = 1000 // first aggressor row tried
	aggrStep  = 4    // rows between tries: each starts beyond the last one's victims
	maxTries  = 50
)

func main() {
	if _, err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run presses aggressor rows in turn until one activation flips a bit in
// a neighbour, narrating to w, and returns the number of bitflips.
func run(w io.Writer) (int, error) {
	// S3 is a Samsung 8Gb D-die module — the most RowPress-vulnerable die
	// revision in the catalogue (Table 5).
	spec, ok := chipgen.ByID("S3")
	if !ok {
		return 0, fmt.Errorf("module S3 not in catalogue")
	}
	mod, _ := spec.NewModule(dram.DefaultGeometry(), 80)
	fmt.Fprintf(w, "module %s (%s %s), bank %d, %d rows x %d bytes, 80°C\n",
		spec.ID, spec.Die.Mfr, spec.Die.Name(), bank, mod.Geo.RowsPerBank, mod.Geo.RowBytes)

	var now dram.TimePS
	for try := 0; try < maxTries; try++ {
		aggressor := firstAggr + try*aggrStep
		victims := []int{aggressor - 1, aggressor + 1}

		// Initialize the aggressor and its neighbours with the checkerboard
		// pattern of §4.1.
		for _, v := range victims {
			if err := mod.InitRow(now, bank, v, 0x55); err != nil {
				return 0, err
			}
		}
		if err := mod.InitRow(now, bank, aggressor, 0xAA); err != nil {
			return 0, err
		}

		// RowPress: open the aggressor row ONCE and keep it open for 30 ms
		// (the paper's extreme case — Obsv. 2: ACmin = 1).
		end, err := mod.HammerBatch(now, dram.HammerSpec{
			Bank: bank, Rows: []int{aggressor}, Count: 1, OnTime: 30 * dram.Millisecond,
		})
		if err != nil {
			return 0, err
		}
		now = end

		total := 0
		for _, v := range victims {
			data, end, err := mod.FetchRow(now, bank, v)
			if err != nil {
				return 0, err
			}
			now = end
			total += report(w, aggressor, v, data, 0x55)
		}
		if total > 0 {
			fmt.Fprintln(w, "\na single activation broke memory isolation: that is RowPress")
			return total, nil
		}
		fmt.Fprintln(w, "  no flips: vulnerability varies per row, pressing the next aggressor")
	}
	return 0, fmt.Errorf("no aggressor of rows %d..%d flipped a neighbour",
		firstAggr, firstAggr+(maxTries-1)*aggrStep)
}

// report prints the bitflips of one victim row read back as data, which
// was filled with expect, and returns how many there are.
func report(w io.Writer, aggressor, victim int, data []byte, expect byte) int {
	n := 0
	for _, b := range data {
		n += bits.OnesCount8(b ^ expect)
	}
	fmt.Fprintf(w, "aggressor %d, victim row %d: %d bitflips\n", aggressor, victim, n)
	shown := 0
	for i, b := range data {
		for bit := 0; bit < 8 && shown < 5; bit++ {
			if (b^expect)&(1<<bit) == 0 {
				continue
			}
			dir := "0->1"
			if expect&(1<<bit) != 0 {
				dir = "1->0"
			}
			fmt.Fprintf(w, "  byte %4d bit %d: %s\n", i, bit, dir)
			shown++
		}
	}
	if n > shown {
		fmt.Fprintf(w, "  ... and %d more\n", n-shown)
	}
	return n
}
