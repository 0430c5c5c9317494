// Mitigation: the paper's §7.4 adaptation methodology — configure
// Graphene-RP and PARA-RP from the device-characterized ACmin-reduction
// curve and measure their performance overhead over the unadapted
// mechanisms on 4-core workload mixes (Table 3).
package main

import (
	"fmt"
	"log"

	"repro/internal/dram"
	"repro/internal/mitigate"
	"repro/internal/report"
	"repro/internal/simperf"
	"repro/internal/workload"
)

func main() {
	// The adaptation inputs: baseline RowHammer threshold and the
	// characterized worst-case ACmin reduction per row-open time.
	fmt.Println("adaptation methodology (§7.4): T'_RH per tmro from the S 8Gb B-die curve")
	var arows [][]string
	for _, tmro := range simperf.TmroLattice {
		ac, err := mitigate.Adapt(simperf.BaseTRH, mitigate.SamsungBDieCurve, tmro)
		if err != nil {
			log.Fatal(err)
		}
		g := mitigate.GrapheneRP(ac, simperf.GrapheneTableSize)
		p := mitigate.PARARP(ac, 1)
		arows = append(arows, []string{
			dram.FormatTime(tmro), fmt.Sprint(ac.TPrimeRH),
			fmt.Sprint(g.Threshold), fmt.Sprintf("%.3f", p.P),
		})
	}
	fmt.Println(report.Table([]string{"tmro", "T'RH", "Graphene-RP T", "PARA-RP p"}, arows))

	// Performance study on 4-core heterogeneous mixes.
	cfg := simperf.DefaultConfig()
	cfg.InstrPerCore = 400_000
	// Flatten the mix groups in MixGroups order: the study rows (and the
	// printed table) must not depend on map iteration order.
	groups := simperf.HeterogeneousMixes(1, 7)
	var mixes [][]workload.Profile
	for _, name := range simperf.MixGroups {
		mixes = append(mixes, groups[name]...)
	}
	var flat [][]string
	for _, kind := range []simperf.MitigationKind{simperf.KindGraphene, simperf.KindPARA} {
		rows, err := simperf.MitigationStudy(kind, cfg, mixes, 7)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range rows {
			flat = append(flat, []string{
				kind.String() + "-RP", dram.FormatTime(r.TMro), fmt.Sprint(r.TPrime),
				report.Pct(r.AvgOverhead), report.Pct(r.MaxOverhead),
			})
		}
	}
	fmt.Println(report.Table(
		[]string{"mechanism", "tmro", "T'RH", "avg overhead", "max overhead"}, flat))
	fmt.Println("Paper: Graphene-RP -0.63% avg (4.6% max), PARA-RP 3.6% avg (13.1% max) at their best tmro.")
}
