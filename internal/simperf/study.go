package simperf

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/mitigate"
	"repro/internal/stats"
	"repro/internal/workload"
)

// TmroLattice is the Table 3 sweep of maximum row-open times.
var TmroLattice = []dram.TimePS{
	36 * dram.Nanosecond,
	66 * dram.Nanosecond,
	96 * dram.Nanosecond,
	186 * dram.Nanosecond,
	336 * dram.Nanosecond,
	636 * dram.Nanosecond,
}

// BaseTRH is the baseline RowHammer threshold of Table 3.
const BaseTRH = 1000

// GrapheneTableSize is the Misra-Gries table size (sized for T = T_RH/3
// per the original Graphene configuration at the simulated scale).
const GrapheneTableSize = 64

// MitigationKind selects the mechanism family for the Table 3 study.
type MitigationKind int

// The two mitigations the paper adapts.
const (
	KindGraphene MitigationKind = iota
	KindPARA
)

func (k MitigationKind) String() string {
	if k == KindPARA {
		return "PARA"
	}
	return "Graphene"
}

// AdaptedFactory builds the per-bank mitigation factory for the adapted
// mechanism at one tmro configuration.
func AdaptedFactory(kind MitigationKind, tmro dram.TimePS, seed uint64) (func(int) mitigate.Mitigation, error) {
	ac, err := mitigate.Adapt(BaseTRH, mitigate.SamsungBDieCurve, tmro)
	if err != nil {
		return nil, err
	}
	switch kind {
	case KindGraphene:
		return func(bank int) mitigate.Mitigation {
			return mitigate.GrapheneRP(ac, GrapheneTableSize)
		}, nil
	case KindPARA:
		return func(bank int) mitigate.Mitigation {
			return mitigate.PARARP(ac, seed+uint64(bank))
		}, nil
	default:
		return nil, fmt.Errorf("simperf: unknown mitigation kind %d", kind)
	}
}

// BaselineFactory builds the unadapted mechanism (tmro = tRAS column of
// Table 3: T' = T_RH, open-row policy).
func BaselineFactory(kind MitigationKind, seed uint64) func(int) mitigate.Mitigation {
	f, err := AdaptedFactory(kind, 36*dram.Nanosecond, seed)
	if err != nil {
		panic(err) // 36 ns is always in the curve
	}
	return f
}

// OverheadRow is one tmro column of Table 3 for one mechanism.
type OverheadRow struct {
	TMro        dram.TimePS
	TPrime      int
	AvgOverhead float64 // mean slowdown vs the unadapted mechanism (fraction)
	MaxOverhead float64
}

// MitigationStudy produces Table 3: for each tmro, the performance of the
// adapted mechanism (reduced threshold + capped row-open time) normalized
// to the original mechanism with the open-row policy, across 4-core
// workload mixes. Each mix is recorded once and replayed for the baseline
// and every tmro; a profile's alone IPC is simulated once per call.
func MitigationStudy(kind MitigationKind, cfg Config, mixes [][]workload.Profile, seed uint64) ([]OverheadRow, error) {
	baseCfg := cfg
	baseCfg.Policy = memctrl.OpenRow()
	baseCfg.NewMitigation = BaselineFactory(kind, seed)

	aloneOf := make(map[workload.Profile]float64)
	overheads := make([][]float64, len(TmroLattice))
	for _, mix := range mixes {
		alone, err := AloneIPCs(cfg, mix, seed, aloneOf)
		if err != nil {
			return nil, err
		}
		tr, err := Record(cfg, mix, seed)
		if err != nil {
			return nil, err
		}
		base, err := RunMix(baseCfg, tr)
		if err != nil {
			return nil, err
		}
		baseWS := base.WeightedSpeedup(alone)
		for j, tmro := range TmroLattice {
			res, err := RunAdapted(kind, tmro, cfg, tr, seed)
			if err != nil {
				return nil, err
			}
			overheads[j] = append(overheads[j], 1-res.WeightedSpeedup(alone)/baseWS)
		}
	}

	rows := make([]OverheadRow, len(TmroLattice))
	for j, tmro := range TmroLattice {
		ac, _ := mitigate.Adapt(BaseTRH, mitigate.SamsungBDieCurve, tmro) // every lattice point is in the curve
		rows[j] = OverheadRow{TMro: tmro, TPrime: ac.TPrimeRH,
			AvgOverhead: stats.Mean(overheads[j]), MaxOverhead: stats.Max(overheads[j])}
	}
	return rows, nil
}

// RunMix replays a recorded mix under the given configuration.
func RunMix(cfg Config, tr *Trace) (Result, error) {
	sim, err := New(cfg, tr)
	if err != nil {
		return Result{}, err
	}
	return sim.Run(), nil
}

// RunAdapted replays a recorded mix under the adapted mechanism (reduced
// threshold + tmro-capped row policy) at one tmro point.
func RunAdapted(kind MitigationKind, tmro dram.TimePS, cfg Config, tr *Trace, seed uint64) (Result, error) {
	factory, err := AdaptedFactory(kind, tmro, seed)
	if err != nil {
		return Result{}, err
	}
	c := cfg
	c.Policy = memctrl.TmroCap(tmro)
	c.NewMitigation = factory
	return RunMix(c, tr)
}

// AloneIPCs simulates each profile alone (no mitigation, open-row) for the
// weighted-speedup denominator. memo holds the alone IPCs already
// simulated under the same cfg and seed, and gains the new ones: light
// profiles repeat across a study's mixes.
func AloneIPCs(cfg Config, mix []workload.Profile, seed uint64, memo map[workload.Profile]float64) ([]float64, error) {
	c := cfg
	c.Policy = memctrl.OpenRow()
	c.NewMitigation = nil
	out := make([]float64, len(mix))
	for i, p := range mix {
		ipc, ok := memo[p]
		if !ok {
			tr, err := Record(c, []workload.Profile{p}, seed)
			if err != nil {
				return nil, err
			}
			res, err := RunMix(c, tr)
			if err != nil {
				return nil, err
			}
			ipc = res.Cores[0].IPC()
			memo[p] = ipc
		}
		out[i] = ipc
	}
	return out, nil
}

// MinOpenRowStudy produces Fig. 38/39: per workload, the normalized IPC
// and the max per-row ACT-count increase of the minimally-open-row policy
// versus the open-row baseline.
type MinOpenRowRow struct {
	Workload      string
	NormalizedIPC float64
	ACTIncrease   float64 // max per-row ACTs per tREFW, minimally-open / open
}

// MinOpenRowStudy runs the Appendix D.1 comparison for the given profiles.
func MinOpenRowStudy(cfg Config, profiles []workload.Profile, seed uint64) ([]MinOpenRowRow, error) {
	var out []MinOpenRowRow
	for _, p := range profiles {
		tr, err := Record(cfg, []workload.Profile{p}, seed)
		if err != nil {
			return nil, err
		}
		open := cfg
		open.Policy = memctrl.OpenRow()
		ro, err := RunMix(open, tr)
		if err != nil {
			return nil, err
		}
		closed := cfg
		closed.Policy = memctrl.ClosedRow()
		rc, err := RunMix(closed, tr)
		if err != nil {
			return nil, err
		}
		row := MinOpenRowRow{Workload: p.Name}
		if ipc := ro.Cores[0].IPC(); ipc > 0 {
			row.NormalizedIPC = rc.Cores[0].IPC() / ipc
		}
		if ro.MaxRowACTsPerWindow > 0 {
			row.ACTIncrease = float64(rc.MaxRowACTsPerWindow) / float64(ro.MaxRowACTsPerWindow)
		}
		out = append(out, row)
	}
	return out, nil
}

// MixGroups names the Appendix D category mixes (Table 9): the letters
// are each core's heavy or light workload. The list is sorted.
var MixGroups = []string{"HHHH", "HHHL", "HHLL", "HLLL", "LLLL"}

// HeterogeneousMixes builds the MixGroups category mixes, n of each,
// deterministically.
func HeterogeneousMixes(n int, seed uint64) map[string][][]workload.Profile {
	heavy, light := workload.Heavy(), workload.Light()
	rng := stats.NewRNG(seed)
	pick := func(pool []workload.Profile) workload.Profile {
		return pool[rng.Intn(len(pool))]
	}
	out := make(map[string][][]workload.Profile)
	for _, group := range MixGroups {
		for i := 0; i < n; i++ {
			var mix []workload.Profile
			for _, ch := range group {
				if ch == 'H' {
					mix = append(mix, pick(heavy))
				} else {
					mix = append(mix, pick(light))
				}
			}
			out[group] = append(out[group], mix)
		}
	}
	return out
}
