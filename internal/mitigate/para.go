package mitigate

import (
	"fmt"

	"repro/internal/stats"
)

// PARA is the probabilistic RowHammer mitigation of Kim et al. [68]: on
// every activation, with probability p, preventively refresh one adjacent
// row. Stateless (no tracking tables), so its protection-vs-overhead
// trade-off is set entirely by p (Table 3 row "PARA-RP p").
type PARA struct {
	P   float64
	rng *stats.RNG

	refreshes uint64
	victim    [1]int
}

// NewPARA builds a PARA instance with refresh probability p and a
// deterministic RNG seed.
func NewPARA(p float64, seed uint64) *PARA {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("mitigate: bad PARA probability %v", p))
	}
	return &PARA{P: p, rng: stats.NewRNG(seed)}
}

// Name implements Mitigation.
func (pa *PARA) Name() string { return "PARA" }

// OnActivate implements Mitigation.
func (pa *PARA) OnActivate(row int) []int {
	if pa.rng.Float64() >= pa.P {
		return nil
	}
	pa.refreshes++
	pa.victim[0] = row + 1
	if pa.rng.Float64() < 0.5 {
		pa.victim[0] = row - 1
	}
	return pa.victim[:]
}

// OnRefreshWindow implements Mitigation (PARA is stateless).
func (pa *PARA) OnRefreshWindow() {}

// PreventiveRefreshes returns the cumulative preventive refresh count.
func (pa *PARA) PreventiveRefreshes() uint64 { return pa.refreshes }
