package core

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/report"
	"repro/internal/simperf"
	"repro/internal/stats"
	"repro/internal/workload"
)

// mitigationKinds orders the two mechanisms the paper adapts; simperf
// shards are keyed per kind so the Graphene and PARA studies run
// concurrently.
var mitigationKinds = []simperf.MitigationKind{simperf.KindGraphene, simperf.KindPARA}

func init() {
	registerKeyed("table3", "Graphene-RP and PARA-RP performance overhead vs tmro",
		staticKeys("kind/Graphene", "kind/PARA"), workTable3, joinSections)
	registerMinOpenRow("fig38", "Max per-row ACT-count increase under minimally-open-row",
		"Max increase in per-row ACT count per tREFW, minimally-open-row vs open-row (Fig. 38)",
		[]string{"workload", "ACT increase"},
		func(r simperf.MinOpenRowRow) string { return report.Num(r.ACTIncrease) + "x" })
	registerMinOpenRow("fig39", "Normalized IPC under minimally-open-row",
		"IPC under minimally-open-row, normalized to open-row (Fig. 39; paper min 0.66)",
		[]string{"workload", "normalized IPC"},
		func(r simperf.MinOpenRowRow) string { return report.Num(r.NormalizedIPC) })
	registerKeyed("fig40", "Per-workload single-core IPC of adapted mitigations vs tmro",
		fig40Keys, workFig40, mergeFig40)
	registerKeyed("fig41", "4-core weighted speedup of adapted mitigations (Table 9 groups)",
		fig41Keys, workFig41, mergeFig41)
}

func perfConfig(o Options) simperf.Config {
	cfg := simperf.DefaultConfig()
	cfg.InstrPerCore = o.scaled(cfg.InstrPerCore, 100_000)
	return cfg
}

func fourCoreMixes(o Options, perGroup int) [][]workload.Profile {
	groups := simperf.HeterogeneousMixes(perGroup, o.Seed)
	var mixes [][]workload.Profile
	for _, g := range simperf.MixGroups {
		mixes = append(mixes, groups[g]...)
	}
	return mixes
}

// workTable3 runs the full overhead study for one mitigation kind.
func workTable3(o Options, i int, key string) (report.DocSection, error) {
	kind := mitigationKinds[i]
	cfg := perfConfig(o)
	mixes := fourCoreMixes(o, o.scaled(2, 1))
	rows, err := simperf.MitigationStudy(kind, cfg, mixes, o.Seed)
	if err != nil {
		return report.DocSection{}, err
	}
	headers := []string{"tmro", "T'RH", "avg overhead", "max overhead"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			dram.FormatTime(r.TMro), fmt.Sprint(r.TPrime),
			report.Pct(r.AvgOverhead), report.Pct(r.MaxOverhead),
		})
	}
	return report.TableSection(
		fmt.Sprintf("%s-RP overhead over %s (Table 3)", kind, kind),
		headers, out), nil
}

// minOpenProfiles is the Appendix D.1 workload set at this scale.
func minOpenProfiles(o Options) []workload.Profile {
	profiles := workload.Heavy()
	if o.Scale < 0.5 {
		profiles = profiles[:min(len(profiles), 6)]
	}
	return profiles
}

// registerMinOpenRow shards the minimally-open-row comparison one
// workload per shard; fig38 and fig39 are two renderings of the same
// study.
func registerMinOpenRow(id, title, section string, headers []string,
	cell func(simperf.MinOpenRowRow) string) {
	keys := func(o Options) ([]string, error) {
		var ks []string
		for _, p := range minOpenProfiles(o) {
			ks = append(ks, "workload/"+p.Name)
		}
		return ks, nil
	}
	work := func(o Options, i int, key string) (simperf.MinOpenRowRow, error) {
		p := minOpenProfiles(o)[i]
		rows, err := simperf.MinOpenRowStudy(perfConfig(o), []workload.Profile{p}, o.Seed)
		if err != nil {
			return simperf.MinOpenRowRow{}, err
		}
		return rows[0], nil
	}
	merge := func(o Options, parts []simperf.MinOpenRowRow) (*report.Doc, error) {
		var out [][]string
		for _, r := range parts {
			out = append(out, []string{r.Workload, cell(r)})
		}
		return report.NewDoc(report.TableSection(section, headers, out)), nil
	}
	registerKeyed(id, title, keys, work, merge)
}

// fig40Profiles is the single-core workload set at this scale.
func fig40Profiles(o Options) []workload.Profile {
	profiles := workload.Heavy()
	if o.Scale < 0.5 {
		profiles = profiles[:min(len(profiles), 5)]
	}
	return profiles
}

func fig40Keys(o Options) ([]string, error) {
	profiles := fig40Profiles(o)
	var ks []string
	for _, kind := range mitigationKinds {
		for _, p := range profiles {
			ks = append(ks, kind.String()+"/"+p.Name)
		}
	}
	return ks, nil
}

// workFig40 simulates one (mitigation kind, workload) pair: baseline IPC
// plus the adapted mechanism's normalized IPC at every tmro.
func workFig40(o Options, i int, key string) ([]float64, error) {
	profiles := fig40Profiles(o)
	kind := mitigationKinds[i/len(profiles)]
	p := profiles[i%len(profiles)]
	cfg := perfConfig(o)
	tr, err := simperf.Record(cfg, []workload.Profile{p}, o.Seed)
	if err != nil {
		return nil, err
	}
	baseCfg := cfg
	baseCfg.NewMitigation = simperf.BaselineFactory(kind, o.Seed)
	base, err := simperf.RunMix(baseCfg, tr)
	if err != nil {
		return nil, err
	}
	norms := make([]float64, 0, len(simperf.TmroLattice))
	for _, tmro := range simperf.TmroLattice {
		res, err := simperf.RunAdapted(kind, tmro, cfg, tr, o.Seed)
		if err != nil {
			return nil, err
		}
		norms = append(norms, res.Cores[0].IPC()/base.Cores[0].IPC())
	}
	return norms, nil
}

func mergeFig40(o Options, parts [][]float64) (*report.Doc, error) {
	profiles := fig40Profiles(o)
	doc := report.NewDoc()
	for ki, kind := range mitigationKinds {
		headers := []string{"workload"}
		for _, tmro := range simperf.TmroLattice {
			headers = append(headers, dram.FormatTime(tmro))
		}
		var out [][]string
		perTmro := make([][]float64, len(simperf.TmroLattice))
		for pi, p := range profiles {
			norms := parts[ki*len(profiles)+pi]
			row := []string{p.Name}
			for i, norm := range norms {
				perTmro[i] = append(perTmro[i], norm)
				row = append(row, report.Num(norm))
			}
			out = append(out, row)
		}
		gm := []string{"GeoMean"}
		for _, vs := range perTmro {
			gm = append(gm, report.Num(stats.GeoMean(vs)))
		}
		out = append(out, gm)
		doc.Add(report.TableSection(
			fmt.Sprintf("Single-core IPC of %s-RP normalized to %s (Fig. 40)", kind, kind),
			headers, out))
	}
	return doc, nil
}

func fig41Keys(o Options) ([]string, error) {
	var ks []string
	for _, kind := range mitigationKinds {
		for _, g := range simperf.MixGroups {
			ks = append(ks, kind.String()+"/"+g)
		}
	}
	return ks, nil
}

// workFig41 simulates one (mitigation kind, mix group): the group's mean
// weighted speedup of the adapted mechanism normalized to baseline, per
// tmro.
func workFig41(o Options, i int, key string) ([]float64, error) {
	names := simperf.MixGroups
	groups := simperf.HeterogeneousMixes(o.scaled(2, 1), o.Seed)
	kind := mitigationKinds[i/len(names)]
	g := names[i%len(names)]
	cfg := perfConfig(o)
	sums := make([]float64, len(simperf.TmroLattice))
	aloneOf := make(map[workload.Profile]float64)
	for _, mix := range groups[g] {
		alone, err := simperf.AloneIPCs(cfg, mix, o.Seed, aloneOf)
		if err != nil {
			return nil, err
		}
		tr, err := simperf.Record(cfg, mix, o.Seed)
		if err != nil {
			return nil, err
		}
		baseCfg := cfg
		baseCfg.NewMitigation = simperf.BaselineFactory(kind, o.Seed)
		base, err := simperf.RunMix(baseCfg, tr)
		if err != nil {
			return nil, err
		}
		baseWS := base.WeightedSpeedup(alone)
		for i, tmro := range simperf.TmroLattice {
			res, err := simperf.RunAdapted(kind, tmro, cfg, tr, o.Seed)
			if err != nil {
				return nil, err
			}
			sums[i] += res.WeightedSpeedup(alone) / baseWS
		}
	}
	n := float64(len(groups[g]))
	avgs := make([]float64, len(sums))
	for i, s := range sums {
		avgs[i] = s / n
	}
	return avgs, nil
}

func mergeFig41(o Options, parts [][]float64) (*report.Doc, error) {
	names := simperf.MixGroups
	doc := report.NewDoc()
	for ki, kind := range mitigationKinds {
		headers := []string{"group"}
		for _, tmro := range simperf.TmroLattice {
			headers = append(headers, dram.FormatTime(tmro))
		}
		var out [][]string
		for gi, g := range names {
			row := []string{g}
			for _, v := range parts[ki*len(names)+gi] {
				row = append(row, report.Num(v))
			}
			out = append(out, row)
		}
		doc.Add(report.TableSection(
			fmt.Sprintf("4-core weighted speedup of %s-RP normalized to %s (Fig. 41/Table 9)", kind, kind),
			headers, out))
	}
	return doc, nil
}
