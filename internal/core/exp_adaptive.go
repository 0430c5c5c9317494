package core

import (
	"fmt"

	"repro/internal/attack"
	"repro/internal/dram"
	"repro/internal/report"
)

func init() {
	register("sec63", "Adaptive row-buffer policies facilitate RowPress (§6.3 conclusion)", runSec63)
}

// runSec63 evaluates the paper's closing claim of §6: memory controllers
// with adaptive row-buffer management (keeping rows open in anticipation
// of reuse) hand the attacker extra tAggON for free. The same program, at
// the same NUM_READS, flips more bits when the MC speculatively holds the
// row open after the last read — and the attacker saves the cache-flush
// work that extra reads would have cost.
func runSec63(o Options) (*report.Doc, error) {
	headers := []string{"MC policy", "NUM_READS", "effective tAggON", "bitflips", "rows w/ flips"}
	var rows [][]string
	for _, hold := range []int{0, 250, 500} {
		sys := demoSystem(o)
		cfg := attackConfig(o)
		cfg.NumAggrActs = 4
		cfg.NumReads = 8 // half the non-adaptive peak's reads
		cfg.AdaptiveHoldNs = hold
		r, err := attack.Run(sys, cfg)
		if err != nil {
			return nil, err
		}
		policy := "open-row (no speculation)"
		if hold > 0 {
			policy = fmt.Sprintf("adaptive (+%dns hold)", hold)
		}
		rows = append(rows, []string{
			policy, fmt.Sprint(cfg.NumReads), dram.FormatTime(r.TAggON),
			fmt.Sprint(r.Bitflips), fmt.Sprint(r.RowsWithFlips),
		})
	}
	return report.NewDoc(report.TableSection("Adaptive row policies hand the attacker tAggON (§6.3)",
		headers, rows)), nil
}
