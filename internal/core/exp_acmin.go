package core

import (
	"fmt"
	"math"

	"repro/internal/characterize"
	"repro/internal/chipgen"
	"repro/internal/dram"
	"repro/internal/report"
	"repro/internal/stats"
)

func init() {
	registerPerModuleSplit("fig1", "ACmin of RowHammer vs RowPress, single/double-sided, 80°C", splitFig1, mergeFig1)
	registerSweep("fig6", "ACmin vs tAggON, single-sided, 50°C, per die revision", characterize.SingleSided, 50)
	registerPerModuleSplit("fig7", "ACmin 7.8–70.2µs, linear scale, 50°C", splitFig7, mergeFig7)
	registerFraction("fig8", "Fraction of rows with ≥1 bitflip vs tAggON, 50°C", 50)
	registerPerModuleSplit("fig9", "tAggONmin vs activation count, 50°C", splitFig9, mergeFig9)
	registerPerModuleSplit("fig12", "Fraction of 1→0 bitflips vs tAggON", splitFig12, mergeFig12)
	registerPerModuleSplit("fig13", "ACmin at 80°C normalized to 50°C", splitFig13, mergeFig13)
	registerFraction("fig14", "Fraction of rows with ≥1 bitflip vs tAggON, 80°C", 80)
	registerPerModule("fig15", "tAggONmin @AC=1 vs temperature (50–80°C)", workFig15, mergeFig15)
	registerSweep("fig17", "ACmin vs tAggON, double-sided, 50°C", characterize.DoubleSided, 50)
	registerSingleMinusDouble("fig18", "Single-sided minus double-sided ACmin, 50°C and 80°C", []float64{50, 80})
	registerSingleMinusDouble("appF", "ACmin at 65°C (normalized) and 3-temperature single-double gap", []float64{50, 65, 80})
}

// taggonHeaders is the shared "module, die, <one column per tAggON>"
// header prefix of the sweep tables.
func taggonHeaders(taggons []dram.TimePS) []string {
	headers := []string{"module", "die"}
	for _, t := range taggons {
		headers = append(headers, dram.FormatTime(t))
	}
	return headers
}

// acminVariant is one (sidedness, temperature) slice of a module's
// ACmin work: experiments that sweep several panels (Fig. 1's two
// sidednesses, Fig. 13's two temperatures, Fig. 18's temperature ×
// sidedness lattice) split every panel into its own row-site sub-shards.
type acminVariant struct {
	key   string // sub-key prefix; "" for single-variant experiments
	sided characterize.Sidedness
	tempC float64
}

// acminSplit builds one module's declared split for ACmin experiments:
// the tested locations are chunked per the sizing heuristic
// (subShardTarget), each (variant, chunk) pair becomes one sub-shard
// running characterize.ACminColumns, and gather stitches the columns
// back into per-variant sweep points — bit-identical to running
// characterize.ACminSweep per variant — before handing them to finish.
func acminSplit[T any](o Options, spec chipgen.ModuleSpec, variants []acminVariant,
	taggons []dram.TimePS, finish func(perVariant [][]characterize.SweepPoint) (T, error)) split[T, [][]characterize.RowResult] {
	cfg0 := o.charConfig()
	locs := characterize.TestedLocations(cfg0.Geometry, cfg0.RowsToTest)
	chunks := chunkRanges(len(locs), subShardTarget)

	type subOf struct{ vi, ci int }
	var keys []string
	var subs []subOf
	for vi, v := range variants {
		for ci, ch := range chunks {
			key := fmt.Sprintf("locs/%d-%d", locs[ch[0]], locs[ch[1]-1])
			if v.key != "" {
				key = v.key + "/" + key
			}
			keys = append(keys, key)
			subs = append(subs, subOf{vi, ci})
		}
	}
	return split[T, [][]characterize.RowResult]{
		keys: keys,
		work: func(j int) ([][]characterize.RowResult, error) {
			v, ch := variants[subs[j].vi], chunks[subs[j].ci]
			cfg := o.charConfig()
			cfg.Sided = v.sided
			cols, err := characterize.ACminColumns(spec, cfg, v.tempC, taggons, locs[ch[0]:ch[1]])
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", spec.ID, keys[j], err)
			}
			return cols, nil
		},
		gather: func(parts [][][]characterize.RowResult) (T, error) {
			perVariant := make([][]characterize.SweepPoint, len(variants))
			for vi := range variants {
				cols := make([][]characterize.RowResult, 0, len(locs))
				for j, part := range parts {
					if subs[j].vi == vi {
						cols = append(cols, part...)
					}
				}
				perVariant[vi] = characterize.AssembleACminSweep(taggons, cols)
			}
			return finish(perVariant)
		},
	}
}

// oneACminSweep adapts a single-variant finish to acminSplit.
func oneACminSweep[T any](o Options, spec chipgen.ModuleSpec, sided characterize.Sidedness, tempC float64,
	taggons []dram.TimePS, finish func(pts []characterize.SweepPoint) (T, error)) split[T, [][]characterize.RowResult] {
	return acminSplit(o, spec, []acminVariant{{"", sided, tempC}}, taggons,
		func(perVariant [][]characterize.SweepPoint) (T, error) { return finish(perVariant[0]) })
}

// registerSweep renders mean/min/max ACmin per module per tAggON plus the
// log-log slope of the ≥7.8 µs tail (the paper's −1 signature). Each
// module is one shard, split into per-row-site sub-shards.
func registerSweep(id, title string, sided characterize.Sidedness, tempC float64) {
	splitOf := func(o Options, spec chipgen.ModuleSpec) split[[]string, [][]characterize.RowResult] {
		return oneACminSweep(o, spec, sided, tempC, sweepTAggONs(o), func(pts []characterize.SweepPoint) ([]string, error) {
			row := []string{spec.ID, spec.Die.Name()}
			var xs, ys []float64
			for _, pt := range pts {
				m := stats.Mean(pt.ACminValues())
				row = append(row, report.Num(m))
				if pt.TAggON >= 7800*dram.Nanosecond && !math.IsNaN(m) {
					xs = append(xs, dram.Seconds(pt.TAggON))
					ys = append(ys, m)
				}
			}
			return append(row, report.Num(stats.FitLogLog(xs, ys).Slope)), nil
		})
	}
	merge := func(o Options, specs []chipgen.ModuleSpec, parts [][]string) (*report.Doc, error) {
		headers := append(taggonHeaders(sweepTAggONs(o)), "slope(log-log,≥7.8us)")
		title2 := fmt.Sprintf("Mean ACmin per module (%s, %g°C)", sided, tempC)
		return report.NewDoc(report.TableSection(title2, headers, parts)), nil
	}
	registerPerModuleSplit(id, title, splitOf, merge)
}

// fig7Taggons is the linear-region lattice of Fig. 7.
var fig7Taggons = []dram.TimePS{7800 * dram.Nanosecond, 15 * dram.Microsecond, 30 * dram.Microsecond, 70200 * dram.Nanosecond}

func splitFig7(o Options, spec chipgen.ModuleSpec) split[[]string, [][]characterize.RowResult] {
	return oneACminSweep(o, spec, characterize.SingleSided, 50, fig7Taggons, func(pts []characterize.SweepPoint) ([]string, error) {
		row := []string{spec.ID, spec.Die.Name()}
		for _, pt := range pts {
			row = append(row, report.Num(stats.Mean(pt.ACminValues())))
		}
		return row, nil
	})
}

func mergeFig7(o Options, specs []chipgen.ModuleSpec, parts [][]string) (*report.Doc, error) {
	return report.NewDoc(report.TableSection("ACmin in the linear region (Fig. 7): note the decreasing reduction rate",
		taggonHeaders(fig7Taggons), parts)), nil
}

func registerFraction(id, title string, tempC float64) {
	splitOf := func(o Options, spec chipgen.ModuleSpec) split[[]string, [][]characterize.RowResult] {
		return oneACminSweep(o, spec, characterize.SingleSided, tempC, sweepTAggONs(o), func(pts []characterize.SweepPoint) ([]string, error) {
			row := []string{spec.ID, spec.Die.Name()}
			for _, pt := range pts {
				row = append(row, report.Pct(pt.FractionWithFlips()))
			}
			return row, nil
		})
	}
	merge := func(o Options, specs []chipgen.ModuleSpec, parts [][]string) (*report.Doc, error) {
		title2 := fmt.Sprintf("Fraction of tested rows with ≥1 bitflip (%g°C)", tempC)
		return report.NewDoc(report.TableSection(title2, taggonHeaders(sweepTAggONs(o)), parts)), nil
	}
	registerPerModuleSplit(id, title, splitOf, merge)
}

func splitFig12(o Options, spec chipgen.ModuleSpec) split[[]string, [][]characterize.RowResult] {
	return oneACminSweep(o, spec, characterize.SingleSided, 50, sweepTAggONs(o), func(pts []characterize.SweepPoint) ([]string, error) {
		row := []string{spec.ID, spec.Die.Name()}
		for _, pt := range pts {
			row = append(row, report.Pct(pt.FractionOneToZero()))
		}
		return row, nil
	})
}

func mergeFig12(o Options, specs []chipgen.ModuleSpec, parts [][]string) (*report.Doc, error) {
	return report.NewDoc(report.TableSection("Fraction of 1→0 bitflips (Fig. 12): RowHammer ≈0%, RowPress ≈100% on true-cell dies",
		taggonHeaders(sweepTAggONs(o)), parts)), nil
}

func splitFig13(o Options, spec chipgen.ModuleSpec) split[[]string, [][]characterize.RowResult] {
	taggons := sweepTAggONs(o)
	variants := []acminVariant{
		{"t50", characterize.SingleSided, 50},
		{"t80", characterize.SingleSided, 80},
	}
	return acminSplit(o, spec, variants, taggons, func(perVariant [][]characterize.SweepPoint) ([]string, error) {
		p50, p80 := perVariant[0], perVariant[1]
		row := []string{spec.ID, spec.Die.Name()}
		for i := range taggons {
			a, b := stats.Mean(p80[i].ACminValues()), stats.Mean(p50[i].ACminValues())
			if math.IsNaN(a) || math.IsNaN(b) || b == 0 {
				row = append(row, "-")
			} else {
				row = append(row, report.Num(a/b))
			}
		}
		return row, nil
	})
}

func mergeFig13(o Options, specs []chipgen.ModuleSpec, parts [][]string) (*report.Doc, error) {
	return report.NewDoc(report.TableSection("ACmin at 80°C normalized to 50°C (Fig. 13): < 1 everywhere RowPress acts",
		taggonHeaders(sweepTAggONs(o)), parts)), nil
}

// fig9ACs is the activation-count lattice at this scale.
func fig9ACs(o Options) []int {
	if o.Scale < 0.5 {
		return []int{1, 10, 100, 1000, 10000}
	}
	return characterize.StandardACs
}

// splitFig9 is the tAggONmin counterpart of acminSplit: per-row-site
// sub-shards over characterize.TAggONminColumns.
func splitFig9(o Options, spec chipgen.ModuleSpec) split[[]string, [][]characterize.TAggONminResult] {
	acs := fig9ACs(o)
	cfg := o.charConfig()
	locs := characterize.TestedLocations(cfg.Geometry, cfg.RowsToTest)
	chunks := chunkRanges(len(locs), subShardTarget)
	keys := make([]string, len(chunks))
	for ci, ch := range chunks {
		keys[ci] = fmt.Sprintf("locs/%d-%d", locs[ch[0]], locs[ch[1]-1])
	}
	return split[[]string, [][]characterize.TAggONminResult]{
		keys: keys,
		work: func(j int) ([][]characterize.TAggONminResult, error) {
			ch := chunks[j]
			cols, err := characterize.TAggONminColumns(spec, o.charConfig(), 50, acs, locs[ch[0]:ch[1]])
			if err != nil {
				return nil, fmt.Errorf("%s %s: %w", spec.ID, keys[j], err)
			}
			return cols, nil
		},
		gather: func(parts [][][]characterize.TAggONminResult) ([]string, error) {
			cols := make([][]characterize.TAggONminResult, 0, len(locs))
			for _, part := range parts {
				cols = append(cols, part...)
			}
			pts := characterize.AssembleTAggONminSweep(acs, cols)
			row := []string{spec.ID, spec.Die.Name()}
			var xs, ys []float64
			for _, pt := range pts {
				m := stats.Mean(pt.Values())
				row = append(row, report.Num(m)+"us")
				if !math.IsNaN(m) {
					xs = append(xs, float64(pt.AC))
					ys = append(ys, m)
				}
			}
			return append(row, report.Num(stats.FitLogLog(xs, ys).Slope)), nil
		},
	}
}

func mergeFig9(o Options, specs []chipgen.ModuleSpec, parts [][]string) (*report.Doc, error) {
	headers := []string{"module", "die"}
	for _, ac := range fig9ACs(o) {
		headers = append(headers, fmt.Sprintf("AC=%d", ac))
	}
	headers = append(headers, "slope")
	return report.NewDoc(report.TableSection("Mean tAggONmin vs activation count (Fig. 9), 50°C; paper slope ≈ −1.000",
		headers, parts)), nil
}

// fig15Temps is the Fig. 15 temperature lattice.
func fig15Temps() []float64 {
	var temps []float64
	for t := 50.0; t <= 80; t += 5 {
		temps = append(temps, t)
	}
	return temps
}

// workFig15 stays a monolithic per-module shard: the temperature sweep
// steps one heater rig through an absolute-time thermal schedule, so
// its searches are not independent row-site slices and must not be
// split.
func workFig15(o Options, spec chipgen.ModuleSpec) ([]string, error) {
	out, err := characterize.TAggONminTempSweep(spec, o.charConfig())
	if err != nil {
		return nil, err
	}
	row := []string{spec.ID, spec.Die.Name()}
	for _, t := range fig15Temps() {
		m := stats.Mean(out[t].Values())
		if math.IsNaN(m) {
			row = append(row, "-")
		} else {
			row = append(row, report.Num(m/1000)+"ms")
		}
	}
	return row, nil
}

func mergeFig15(o Options, specs []chipgen.ModuleSpec, parts [][]string) (*report.Doc, error) {
	headers := []string{"module", "die"}
	for _, t := range fig15Temps() {
		headers = append(headers, fmt.Sprintf("%g°C", t))
	}
	return report.NewDoc(report.TableSection("Mean tAggONmin @AC=1 vs temperature (Fig. 15)",
		headers, parts)), nil
}

// registerSingleMinusDouble shards Fig. 18 / Appendix F per module with
// (temperature × sidedness × row-site chunk) sub-shards: each shard
// computes the single-vs-double gap row for every temperature, and the
// merge lays the rows out one section per temperature.
func registerSingleMinusDouble(id, title string, temps []float64) {
	splitOf := func(o Options, spec chipgen.ModuleSpec) split[[][]string, [][]characterize.RowResult] {
		taggons := sweepTAggONs(o)
		var variants []acminVariant
		for _, tempC := range temps {
			variants = append(variants,
				acminVariant{fmt.Sprintf("t%g/single", tempC), characterize.SingleSided, tempC},
				acminVariant{fmt.Sprintf("t%g/double", tempC), characterize.DoubleSided, tempC},
			)
		}
		return acminSplit(o, spec, variants, taggons, func(perVariant [][]characterize.SweepPoint) ([][]string, error) {
			perTemp := make([][]string, 0, len(temps))
			for ti := range temps {
				single, double := perVariant[2*ti], perVariant[2*ti+1]
				row := []string{spec.ID, spec.Die.Name()}
				for i := range taggons {
					s, d := stats.Mean(single[i].ACminValues()), stats.Mean(double[i].ACminValues())
					if math.IsNaN(s) || math.IsNaN(d) {
						row = append(row, "-")
					} else {
						row = append(row, report.Num(s-d))
					}
				}
				perTemp = append(perTemp, row)
			}
			return perTemp, nil
		})
	}
	merge := func(o Options, specs []chipgen.ModuleSpec, parts [][][]string) (*report.Doc, error) {
		headers := taggonHeaders(sweepTAggONs(o))
		doc := report.NewDoc()
		for ti, tempC := range temps {
			var rows [][]string
			for si := range specs {
				rows = append(rows, parts[si][ti])
			}
			doc.Add(report.TableSection(
				fmt.Sprintf("Single-sided minus double-sided mean ACmin at %g°C (negative: single better)", tempC),
				headers, rows))
		}
		return doc, nil
	}
	registerPerModuleSplit(id, title, splitOf, merge)
}

// fig1Taggons are the four anchor points of Fig. 1.
var fig1Taggons = []dram.TimePS{36 * dram.Nanosecond, 7800 * dram.Nanosecond, 70200 * dram.Nanosecond, 30 * dram.Millisecond}

// fig1Sides orders the two Fig. 1 panels.
var fig1Sides = []characterize.Sidedness{characterize.SingleSided, characterize.DoubleSided}

// splitFig1 sweeps one module at 80°C for both sidedness panels, one
// sub-shard per (panel, row-site chunk).
func splitFig1(o Options, spec chipgen.ModuleSpec) split[[][]characterize.SweepPoint, [][]characterize.RowResult] {
	variants := []acminVariant{
		{"single", characterize.SingleSided, 80},
		{"double", characterize.DoubleSided, 80},
	}
	return acminSplit(o, spec, variants, fig1Taggons,
		func(perVariant [][]characterize.SweepPoint) ([][]characterize.SweepPoint, error) {
			return perVariant, nil
		})
}

// mergeFig1 pools the per-module sweeps per manufacturer and renders the
// ACmin distribution boxes.
func mergeFig1(o Options, specs []chipgen.ModuleSpec, parts [][][]characterize.SweepPoint) (*report.Doc, error) {
	doc := report.NewDoc()
	for si, sided := range fig1Sides {
		var rows [][]string
		perMfr := map[chipgen.Manufacturer]map[dram.TimePS][]float64{}
		for i, spec := range specs {
			mfr := spec.Die.Mfr
			if perMfr[mfr] == nil {
				perMfr[mfr] = map[dram.TimePS][]float64{}
			}
			for _, pt := range parts[i][si] {
				perMfr[mfr][pt.TAggON] = append(perMfr[mfr][pt.TAggON], pt.ACminValues()...)
			}
		}
		for _, mfr := range chipgen.AllManufacturers {
			for _, tg := range fig1Taggons {
				vs := perMfr[mfr][tg]
				rows = append(rows, []string{
					"Mfr. " + string(mfr), dram.FormatTime(tg), report.Box(stats.Describe(vs)),
				})
			}
		}
		doc.Add(report.TableSection(
			fmt.Sprintf("ACmin distributions at 80°C, %s (Fig. 1)", sided),
			[]string{"mfr", "tAggON", "ACmin distribution"}, rows))
	}
	return doc, nil
}
