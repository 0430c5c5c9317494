package core

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/sysarch"
)

func init() {
	register("fig23", "Real-system RowPress vs RowHammer bitflips (Algorithm 1)", runFig23)
	register("fig24", "Latency histogram: first vs subsequent cache-block access", runFig24)
	register("fig49", "Algorithm 2 variant vs Algorithm 1 (Appendix G)", runFig49)
}

func demoSystem(o Options) *sysarch.System {
	geo := dram.Geometry{Banks: 4, RowsPerBank: 4096, RowBytes: 8192}
	return sysarch.NewDemoSystem(geo, 0xDE40^o.Seed)
}

func attackConfig(o Options) attack.Config {
	cfg := attack.DefaultConfig()
	// Only the victim count scales: the accumulation window is physics
	// (exposure builds over one 64 ms refresh window), not a knob.
	cfg.Victims = o.scaled(cfg.Victims, 8)
	return cfg
}

// gridSection renders an attack grid as one titled table section.
func gridSection(title string, grid attack.GridResult) report.DocSection {
	headers := []string{"NUM_AGGR_ACTS", "NUM_READS", "tAggON", "fits tREFI", "bitflips", "rows w/ flips"}
	var rows [][]string
	for _, c := range grid.Cells {
		kind := "RowPress"
		if c.NumReads == 1 {
			kind = "RowHammer"
		}
		rows = append(rows, []string{
			fmt.Sprint(c.NumAggrActs),
			fmt.Sprintf("%d (%s)", c.NumReads, kind),
			dram.FormatTime(c.TAggON),
			fmt.Sprint(c.Synced),
			fmt.Sprint(c.Bitflips),
			fmt.Sprint(c.RowsWithFlips),
		})
	}
	return report.TableSection(title, headers, rows)
}

func runFig23(o Options) (*report.Doc, error) {
	sys := demoSystem(o)
	grid, err := attack.RunGrid(sys, attackConfig(o))
	if err != nil {
		return nil, err
	}
	return report.NewDoc(gridSection(
		"User-level program on a TRR-protected system (Fig. 23): NUM_READS=1 is conventional RowHammer",
		grid)), nil
}

func runFig24(o Options) (*report.Doc, error) {
	sys := demoSystem(o)
	samples := o.scaled(2000, 50)
	firstHist := stats.NewHistogram(180, 260, 16)
	restHist := stats.NewHistogram(180, 260, 16)
	for i := 0; i < samples; i++ {
		lat, err := sys.ProbeRowLatencies(1, 100+(i%64)*16)
		if err != nil {
			return nil, err
		}
		firstHist.Add(float64(lat[0]))
		for _, l := range lat[1:] {
			restHist.Add(float64(l))
		}
	}
	var rows [][]string
	for i := range firstHist.Counts {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f-%.0f cyc", firstHist.Lo+float64(i)*firstHist.BinWidth, firstHist.Lo+float64(i+1)*firstHist.BinWidth),
			report.Pct(firstHist.Frequencies()[i]),
			report.Pct(restHist.Frequencies()[i]),
		})
	}
	return report.NewDoc(report.TableSection(
		"Cache-block access latency (Fig. 24): the MC keeps rows open across block reads",
		[]string{"latency bin", "first access", "subsequent accesses"}, rows,
		fmt.Sprintf("median first = %s cyc, median subsequent = %s cyc, gap = %s cyc (paper: 30)",
			report.Num(firstHist.Median()), report.Num(restHist.Median()),
			report.Num(firstHist.Median()-restHist.Median())))), nil
}

func runFig49(o Options) (*report.Doc, error) {
	doc := report.NewDoc()
	for _, variant := range []attack.Variant{attack.Algorithm1, attack.Algorithm2} {
		sys := demoSystem(o)
		cfg := attackConfig(o)
		cfg.Variant = variant
		grid, err := attack.RunGrid(sys, cfg)
		if err != nil {
			return nil, err
		}
		doc.Add(gridSection(fmt.Sprintf("%s results (Appendix G)", variant), grid))
	}
	return doc, nil
}
