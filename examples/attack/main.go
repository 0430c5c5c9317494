// Attack: the paper's §6 real-system demonstration — a user-level access
// pattern that induces RowPress bitflips on a simulated TRR-protected
// DDR4 system where conventional RowHammer cannot, plus the §6.3
// verification that multi-cache-block reads keep the DRAM row open.
package main

import (
	"fmt"
	"log"

	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/report"
	"repro/internal/sysarch"
)

func main() {
	geo := dram.Geometry{Banks: 4, RowsPerBank: 4096, RowBytes: 8192}
	sys := sysarch.NewDemoSystem(geo, 0xA77AC4)

	// Step 1 (§6.3): verify the memory controller keeps rows open while a
	// program reads consecutive cache blocks.
	lat, err := sys.ProbeRowLatencies(1, 700)
	if err != nil {
		log.Fatal(err)
	}
	var rest float64
	for _, l := range lat[1:] {
		rest += float64(l)
	}
	rest /= float64(len(lat) - 1)
	fmt.Printf("first cache-block access: %d cycles; subsequent: %.0f cycles (gap ~30 => row held open)\n\n",
		lat[0], rest)

	// Step 2 (§6.2): sweep NUM_READS at NUM_AGGR_ACTS=4. NUM_READS=1 is
	// conventional RowHammer; larger values keep the aggressor open longer
	// per activation (RowPress).
	cfg := attack.DefaultConfig()
	cfg.Victims = 96
	var rows [][]string
	for _, reads := range []int{1, 4, 8, 16, 32, 48} {
		cfg.NumReads = reads
		r, err := attack.Run(sys, cfg)
		if err != nil {
			log.Fatal(err)
		}
		kind := "RowPress"
		if reads == 1 {
			kind = "RowHammer"
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d (%s)", reads, kind),
			dram.FormatTime(r.TAggON),
			fmt.Sprint(r.Synced),
			fmt.Sprint(r.Bitflips),
			fmt.Sprint(r.RowsWithFlips),
		})
	}
	fmt.Println(report.Table(
		[]string{"NUM_READS", "tAggON", "fits tREFI", "bitflips", "rows w/ flips"}, rows))
	fmt.Println("Takeaway 6: the RowPress program flips bits where RowHammer cannot, peaking at an")
	fmt.Println("intermediate NUM_READS and collapsing once the pattern no longer fits a tREFI window.")
}
