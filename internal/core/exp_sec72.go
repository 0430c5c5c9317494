package core

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/memctrl"
	"repro/internal/report"
	"repro/internal/simperf"
	"repro/internal/workload"
)

func init() {
	register("sec72", "Row-buffer decoupling as a RowPress mitigation (§7.2)", runSec72)
}

// runSec72 evaluates the §7.2 candidate mitigation the paper discusses but
// leaves to future work: (1) on the real-system model, decoupling the row
// buffer from the wordline defeats the RowPress attack at its peak
// configuration without touching the program's timing; (2) on the
// performance simulator, the policy keeps open-row performance (hits still
// hit the decoupled buffer). The paper's caveats stand: it needs DRAM chip
// changes and does not mitigate RowHammer.
func runSec72(o Options) (*report.Doc, error) {
	// Part 1: attack with and without decoupling at the peak configuration.
	var rows [][]string
	for _, decoupled := range []bool{false, true} {
		sys := demoSystem(o)
		cfg := attackConfig(o)
		cfg.NumAggrActs = 4
		cfg.NumReads = 16
		cfg.RowBufferDecoupled = decoupled
		r, err := attack.Run(sys, cfg)
		if err != nil {
			return nil, err
		}
		mode := "conventional open-row"
		if decoupled {
			mode = "row-buffer decoupled"
		}
		rows = append(rows, []string{mode, fmt.Sprint(r.Bitflips), fmt.Sprint(r.RowsWithFlips)})
	}

	// Part 2: performance parity with open-row.
	cfg := perfConfig(o)
	p, _ := workload.ByName("462.libquantum") // the most row-locality-bound workload
	tr, err := simperf.Record(cfg, []workload.Profile{p}, o.Seed)
	if err != nil {
		return nil, err
	}
	open := cfg
	open.Policy = memctrl.OpenRow()
	ro, err := simperf.RunMix(open, tr)
	if err != nil {
		return nil, err
	}
	dec := cfg
	dec.Policy = memctrl.Decoupled()
	rd, err := simperf.RunMix(dec, tr)
	if err != nil {
		return nil, err
	}
	return report.NewDoc(
		report.TableSection("Row-buffer decoupling (§7.2): stops RowPress at zero row-locality cost",
			[]string{"wordline policy", "RowPress bitflips", "rows w/ flips"}, rows),
		report.TableSection("Performance parity on the most locality-bound workload",
			[]string{"policy", "IPC", "row-hit rate"}, [][]string{
				{"open-row", report.Num(ro.Cores[0].IPC()), report.Pct(ro.Cores[0].RowHitRate())},
				{"row-buffer-decoupled", report.Num(rd.Cores[0].IPC()), report.Pct(rd.Cores[0].RowHitRate())},
			})), nil
}
