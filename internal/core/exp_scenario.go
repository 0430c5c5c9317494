package core

import (
	"fmt"
	"strconv"

	"repro/internal/chipgen"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/scenario"
)

// The attack-scenario experiments go beyond the paper's fixed figures:
// the composable access-pattern matrix of internal/scenario — pure
// RowHammer, pure RowPress, the combined hammer×tAggON interleavings of
// arXiv:2406.13080, and decoy-decorated TRR-bypass variants — is played
// against each selected module, both unmitigated (scenario-grid, with a
// minimum-exposure search) and under every evaluated mitigation
// including the ImPress-style implicit one (scenario-mitigation).
//
// Each (module, scenario[, mitigation]) cell is one engine shard, so
// scenario runs flow through the worker pool, the shard cache, sweep
// batching, and the HTTP layer exactly like every paper experiment.
func init() {
	registerPlan("scenario-grid",
		"Attack-scenario characterization: min exposure to flip per pattern (unmitigated)",
		planScenGrid)
	registerPlan("scenario-mitigation",
		"Attack scenarios vs mitigations: bitflips and preventive-refresh overhead",
		planScenMit)
}

// scenConfig derives the scenario playback methodology at this scale:
// the activation budget shrinks with Scale, the simulated-time cap does
// not (long-dwell patterns flip within a few refresh windows regardless
// of scale), and mitigation sizing is scale-independent hardware
// configuration.
func scenConfig(o Options) scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.MaxActs = o.scaled(cfg.MaxActs, 20_000)
	cfg.Sites = o.scaled(cfg.Sites, 2)
	cfg.Seed = o.Seed
	return cfg
}

// scenLattice is the scenario experiments' plan-time resolution: the
// selected modules, the scenario catalog, the playback config, and each
// scenario's victim-site sub-shard keys. It is resolved once per plan and
// every (module, scenario[, mitigation]) cell indexes into it.
type scenLattice struct {
	mods  []chipgen.ModuleSpec
	cat   []scenario.Spec
	cfg   scenario.Config
	sites [][]string // per catalog scenario: "site/0" .. "site/n-1"
}

func newScenLattice(o Options) (*scenLattice, error) {
	mods, err := o.modules()
	if err != nil {
		return nil, err
	}
	l := &scenLattice{mods: mods, cat: scenario.Catalog(), cfg: scenConfig(o)}
	l.sites = make([][]string, len(l.cat))
	for si, sc := range l.cat {
		n := scenario.SiteCount(sc, l.cfg)
		if n == 0 {
			return nil, fmt.Errorf("scenario: geometry with %d rows/bank cannot host a %d-sided site",
				l.cfg.Geometry.RowsPerBank, sc.Sides)
		}
		l.sites[si] = make([]string, n)
		for j := range n {
			l.sites[si][j] = "site/" + strconv.Itoa(j)
		}
	}
	return l, nil
}

// cell declares the per-victim-site split of the (module mi, scenario si,
// mitigation kind) cell: sites play on fresh modules with independent
// deterministic seeds, so each is its own cache-keyed sub-shard and
// scenario.FoldSites reassembles the cell Result bit-identically to the
// serial per-site loop.
// The closures share the lattice's entries by pointer, so a cell costs
// two small closures rather than two copies of the module spec.
func (l *scenLattice) cell(mi, si int, kind scenario.MitigationKind, search bool) split[scenario.Result, scenario.SiteResult] {
	mod, sc, cfg := &l.mods[mi], &l.cat[si], &l.cfg
	return split[scenario.Result, scenario.SiteResult]{
		keys: l.sites[si],
		work: func(j int) (scenario.SiteResult, error) {
			if search {
				return scenario.CharacterizeSite(*mod, *sc, kind, *cfg, j)
			}
			return scenario.EvaluateSite(*mod, *sc, kind, *cfg, j)
		},
		gather: func(parts []scenario.SiteResult) (scenario.Result, error) {
			return scenario.FoldSites(*mod, *sc, kind, parts, search), nil
		},
	}
}

// planScenGrid characterizes every (module, scenario) cell unmitigated —
// the doubling+bisection minimum-exposure search included — each cell
// split one sub-shard per victim site.
func planScenGrid(o Options) (engine.Plan, error) {
	l, err := newScenLattice(o)
	if err != nil {
		return engine.Plan{}, err
	}
	keys := make([]string, 0, len(l.mods)*len(l.cat))
	for _, m := range l.mods {
		for _, sc := range l.cat {
			keys = append(keys, "module/"+m.ID+"/scenario/"+sc.Name)
		}
	}
	return typedSplitShards(keys,
		func(i int) split[scenario.Result, scenario.SiteResult] {
			return l.cell(i/len(l.cat), i%len(l.cat), scenario.MitNone, true)
		},
		func(parts []scenario.Result) (*report.Doc, error) { return mergeScenGrid(l, parts), nil },
	), nil
}

func mergeScenGrid(l *scenLattice, parts []scenario.Result) *report.Doc {
	cat := l.cat
	doc := report.NewDoc()
	for mi, mod := range l.mods {
		headers := []string{"scenario", "pattern", "min ACs to flip", "time to flip", "flips@budget", "budget ACs"}
		var rows [][]string
		byName := map[string]scenario.Result{}
		for si, sc := range cat {
			r := parts[mi*len(cat)+si]
			byName[sc.Name] = r
			minActs, minTime := "-", "-"
			if r.FlipFound && r.MinActs > 0 {
				minActs = fmt.Sprint(r.MinActs)
				minTime = dram.FormatTime(r.MinTime)
			}
			rows = append(rows, []string{
				sc.Name, sc.Pattern(), minActs, minTime,
				fmt.Sprint(r.BitFlips), fmt.Sprint(r.BudgetActs),
			})
		}
		doc.Add(report.TableSection(
			fmt.Sprintf("Attack-scenario grid — module %s (%s %s)", mod.ID, mod.Die.Mfr, mod.Die.Name()),
			headers, rows))
		if plane, ok := scenPlaneFinding(mod, cat, byName); ok {
			doc.Add(plane)
		}
	}
	return doc
}

// scenPlaneFinding renders the arXiv:2406.13080 headline per module: the
// best combined (interleaved) pattern reaches its first bitflip with
// fewer activations than pure double-sided RowHammer, while pure
// RowPress patterns need several-fold more attack time — the threat
// surface is the whole hammer-count × row-open-time plane.
func scenPlaneFinding(mod chipgen.ModuleSpec, cat []scenario.Spec, byName map[string]scenario.Result) (report.DocSection, bool) {
	hammer, okH := byName["ds-hammer"]
	if !okH || !hammer.FlipFound {
		return report.DocSection{}, false
	}
	// Catalog order keeps the tie-break deterministic (map iteration is
	// not), which the byte-identical-across-workers contract requires.
	var bestC, bestP scenario.Result
	var bestCName, bestPName string
	for _, sc := range cat {
		r, ok := byName[sc.Name]
		if !ok || !r.FlipFound {
			continue
		}
		switch sc.Kind {
		case scenario.Combined:
			if bestCName == "" || r.MinActs < bestC.MinActs {
				bestC, bestCName = r, sc.Name
			}
		case scenario.Press:
			if bestPName == "" || r.MinTime < bestP.MinTime {
				bestP, bestPName = r, sc.Name
			}
		}
	}
	if bestCName == "" {
		return report.DocSection{}, false
	}
	lines := []string{
		fmt.Sprintf("best combined pattern %s: first flip at %d ACs in %s",
			bestCName, bestC.MinActs, dram.FormatTime(bestC.MinTime)),
		fmt.Sprintf("vs pure ds-hammer: %d ACs (%s of pure RowHammer's activation count)",
			hammer.MinActs, report.Pct(float64(bestC.MinActs)/float64(hammer.MinActs))),
	}
	if bestPName != "" {
		lines = append(lines, fmt.Sprintf(
			"vs fastest pure press %s: %s to flip (combined interleaving reaches the plane between both pure patterns)",
			bestPName, dram.FormatTime(bestP.MinTime)))
	}
	return report.FindingsSection(
		fmt.Sprintf("Combined-plane finding (arXiv:2406.13080) — module %s", mod.ID), lines...), true
}

// planScenMit evaluates every (module, scenario, mitigation) cell at the
// full activation budget (no search — the comparison wants flip counts
// and preventive-refresh overhead at equal exposure), each cell split one
// sub-shard per victim site.
func planScenMit(o Options) (engine.Plan, error) {
	l, err := newScenLattice(o)
	if err != nil {
		return engine.Plan{}, err
	}
	mits := scenario.AllMitigations()
	keys := make([]string, 0, len(l.mods)*len(l.cat)*len(mits))
	for _, m := range l.mods {
		for _, sc := range l.cat {
			for _, mk := range mits {
				keys = append(keys, "module/"+m.ID+"/scenario/"+sc.Name+"/mit/"+string(mk))
			}
		}
	}
	perModule := len(l.cat) * len(mits)
	return typedSplitShards(keys,
		func(i int) split[scenario.Result, scenario.SiteResult] {
			return l.cell(i/perModule, (i%perModule)/len(mits), mits[i%len(mits)], false)
		},
		func(parts []scenario.Result) (*report.Doc, error) { return mergeScenMit(l, mits, parts), nil },
	), nil
}

func mergeScenMit(l *scenLattice, mits []scenario.MitigationKind, parts []scenario.Result) *report.Doc {
	perModule := len(l.cat) * len(mits)
	doc := report.NewDoc()
	for mi, mod := range l.mods {
		headers := []string{"scenario"}
		for _, mk := range mits {
			headers = append(headers, string(mk))
		}
		flipRows := make([][]string, len(l.cat))
		ovhRows := make([][]string, len(l.cat))
		totals := make([]int, len(mits))
		for si, sc := range l.cat {
			flipRows[si] = []string{sc.Name}
			ovhRows[si] = []string{sc.Name}
			for ki := range mits {
				r := parts[mi*perModule+si*len(mits)+ki]
				flipRows[si] = append(flipRows[si], fmt.Sprint(r.BitFlips))
				ovhRows[si] = append(ovhRows[si], report.Num(r.RefreshOverhead))
				totals[ki] += r.BitFlips
			}
		}
		totalRow := []string{"TOTAL"}
		for _, v := range totals {
			totalRow = append(totalRow, fmt.Sprint(v))
		}
		flipRows = append(flipRows, totalRow)
		doc.Add(report.TableSection(
			fmt.Sprintf("Bitflips per scenario × mitigation — module %s", mod.ID),
			headers, flipRows))
		doc.Add(report.TableSection(
			fmt.Sprintf("Preventive refreshes per 1000 aggressor ACTs — module %s", mod.ID),
			headers, ovhRows))
	}
	return doc
}
