package core

import (
	"fmt"
	"strings"

	"repro/internal/characterize"
	"repro/internal/chipgen"
	"repro/internal/dram"
	"repro/internal/ecc"
	"repro/internal/report"
)

func init() {
	registerOverlap("fig10", "Overlap of RowPress cells @ACmin with RowHammer and retention cells", false)
	registerPerModule("fig11", "Overlap of RowPress cells @ACmax with RowHammer and retention cells", workFig11, mergeFig11)
	registerKeyed("fig19", "Normalized ACmin per data pattern (single-sided)",
		staticKeys("S0/50", "S0/80", "H0/50", "H0/80", "M6/50", "M6/80"), workFig19, joinSections)
	registerKeyed("fig20", "Normalized ACmin per data pattern (double-sided, Mfr. S 8Gb B-die)",
		staticKeys("50", "80"), workFig20, joinSections)
	registerKeyed("fig22", "BER of the RowPress-ONOFF pattern (representative die)",
		staticKeys("single/50", "single/80", "double/50", "double/80"), workFig22, joinSections)
	registerPerModule("appC", "ONOFF BER for all die revisions",
		func(o Options, spec chipgen.ModuleSpec) (report.DocSection, error) {
			return onoffReport(spec, o, characterize.SingleSided, 50)
		},
		func(o Options, specs []chipgen.ModuleSpec, parts []report.DocSection) (*report.Doc, error) {
			return report.NewDoc(parts...), nil
		})
	registerPerModule("appE", "Repeatability of bitflips across 5 trials", workAppE, mergeAppE)
	registerECC("fig25", "64-bit words by bitflip count @tAggON=7.8µs + ECC outcomes", 7800*dram.Nanosecond)
	registerECC("fig26", "64-bit words by bitflip count @tAggON=70.2µs + ECC outcomes", 70200*dram.Nanosecond)
	register("table1", "Tested DDR4 chips (Table 1)", runTable1)
	registerPerModule("table5", "Per-module RowHammer/RowPress summary (Table 5)", workTable5, mergeTable5)
	registerPerModule("table6", "Per-module maximum bit error rate (Table 6)", workTable6, mergeTable6)
}

// joinSections is the merge for experiments whose shards each produce a
// complete, typed report section.
func joinSections(o Options, parts []report.DocSection) (*report.Doc, error) {
	return report.NewDoc(parts...), nil
}

// flattenRows is the merge body for experiments whose shards produce row
// blocks of one shared table.
func flattenRows(parts [][][]string) [][]string {
	var rows [][]string
	for _, block := range parts {
		rows = append(rows, block...)
	}
	return rows
}

func registerOverlap(id, title string, atMax bool) {
	work := func(o Options, spec chipgen.ModuleSpec) ([][]string, error) {
		pts, err := characterize.OverlapSweep(spec, o.charConfig(), 50, sweepTAggONs(o))
		if err != nil {
			return nil, err
		}
		var rows [][]string
		for _, pt := range pts {
			rows = append(rows, []string{
				spec.ID, dram.FormatTime(pt.TAggON),
				fmt.Sprint(pt.Cells), report.Pct(pt.WithHammer), report.Pct(pt.WithRetention),
			})
		}
		return rows, nil
	}
	merge := func(o Options, specs []chipgen.ModuleSpec, parts [][][]string) (*report.Doc, error) {
		headers := []string{"module", "tAggON", "cells", "overlap w/ RowHammer", "overlap w/ retention"}
		mode := "@ACmin"
		if atMax {
			mode = "@ACmax"
		}
		return report.NewDoc(report.TableSection("RowPress-vulnerable cell overlap "+mode+" (Obsv. 7: ≈0 beyond tRAS)",
			headers, flattenRows(parts))), nil
	}
	registerPerModule(id, title, work, merge)
}

// workFig11 compares the cells flipped at the budget-limited maximum
// activation count per tAggON against the @ACmax RowHammer set and the
// retention-failure set, for one module.
func workFig11(o Options, spec chipgen.ModuleSpec) ([][]string, error) {
	cfg := o.charConfig()
	taggons := sweepTAggONs(o)
	locs := characterize.TestedLocations(cfg.Geometry, cfg.RowsToTest)
	flipSets := make([]map[characterize.CellKey]bool, len(taggons))
	for i, tg := range taggons {
		b, err := characterize.NewBench(spec, cfg, 50)
		if err != nil {
			return nil, err
		}
		flips, err := characterize.MaxACFlips(b, locs, tg, cfg)
		if err != nil {
			return nil, err
		}
		flipSets[i] = make(map[characterize.CellKey]bool, len(flips))
		characterize.AddCells(flipSets[i], flips)
	}
	bret, err := characterize.NewBench(spec, cfg, 50)
	if err != nil {
		return nil, err
	}
	retSet, err := characterize.RetentionTest(bret, locs, cfg, 4)
	if err != nil {
		return nil, err
	}
	hammerSet := flipSets[0] // tAggON = tRAS column
	var rows [][]string
	for i, tg := range taggons {
		rows = append(rows, []string{
			spec.ID, dram.FormatTime(tg), fmt.Sprint(len(flipSets[i])),
			report.Pct(characterize.OverlapRatio(flipSets[i], hammerSet)),
			report.Pct(characterize.OverlapRatio(flipSets[i], retSet)),
		})
	}
	return rows, nil
}

func mergeFig11(o Options, specs []chipgen.ModuleSpec, parts [][][]string) (*report.Doc, error) {
	headers := []string{"module", "tAggON", "cells", "overlap w/ RowHammer@ACmax", "overlap w/ retention"}
	return report.NewDoc(report.TableSection("RowPress-vulnerable cell overlap @ACmax (Fig. 11)",
		headers, flattenRows(parts))), nil
}

func dataPatternReport(spec chipgen.ModuleSpec, o Options, sided characterize.Sidedness, tempC float64) (report.DocSection, error) {
	cfg := o.charConfig()
	cfg.Sided = sided
	taggons := characterize.DataPatternTAggONs
	if o.Scale < 0.5 {
		taggons = taggons[:4]
	}
	cells, err := characterize.DataPatternStudy(spec, cfg, tempC, taggons)
	if err != nil {
		return report.DocSection{}, err
	}
	byPattern := map[string][]string{}
	for _, c := range cells {
		v := report.Num(c.Normalized)
		if c.NoBitflip {
			v = "NoBitflip"
		}
		byPattern[c.Pattern.String()] = append(byPattern[c.Pattern.String()], v)
	}
	headers := []string{"pattern"}
	for _, t := range taggons {
		headers = append(headers, dram.FormatTime(t))
	}
	var rows [][]string
	for _, p := range dram.AllDataPatterns {
		rows = append(rows, append([]string{p.String()}, byPattern[p.String()]...))
	}
	title := fmt.Sprintf("ACmin normalized to CheckerBoard: %s %s, %s, %g°C", spec.ID, spec.Die.Name(), sided, tempC)
	return report.TableSection(title, headers, rows), nil
}

// workFig19 renders one (representative die, temperature) data-pattern
// panel per shard. The paper's three representative dies: S 8Gb B,
// H 16Gb A, M 16Gb F.
func workFig19(o Options, i int, key string) (report.DocSection, error) {
	id, tempStr, _ := strings.Cut(key, "/")
	spec, err := moduleByID(id)
	if err != nil {
		return report.DocSection{}, err
	}
	tempC := 50.0
	if tempStr == "80" {
		tempC = 80
	}
	return dataPatternReport(spec, o, characterize.SingleSided, tempC)
}

func workFig20(o Options, i int, key string) (report.DocSection, error) {
	spec, err := moduleByID("S0")
	if err != nil {
		return report.DocSection{}, err
	}
	tempC := 50.0
	if key == "80" {
		tempC = 80
	}
	return dataPatternReport(spec, o, characterize.DoubleSided, tempC)
}

func onoffReport(spec chipgen.ModuleSpec, o Options, sided characterize.Sidedness, tempC float64) (report.DocSection, error) {
	cfg := o.charConfig()
	cfg.Sided = sided
	pts, err := characterize.ONOFFSweep(spec, cfg, tempC)
	if err != nil {
		return report.DocSection{}, err
	}
	headers := []string{"ΔtA2A"}
	for _, f := range characterize.OnFracs {
		headers = append(headers, report.Pct(f)+"→on")
	}
	byDelta := map[dram.TimePS][]string{}
	for _, pt := range pts {
		byDelta[pt.DeltaA2A] = append(byDelta[pt.DeltaA2A], report.Num(pt.BER.MaxBER))
	}
	var rows [][]string
	for _, d := range characterize.DeltaA2As {
		rows = append(rows, append([]string{dram.FormatTime(d)}, byDelta[d]...))
	}
	title := fmt.Sprintf("Max BER, RowPress-ONOFF: %s %s, %s, %g°C", spec.ID, spec.Die.Name(), sided, tempC)
	return report.TableSection(title, headers, rows), nil
}

func workFig22(o Options, i int, key string) (report.DocSection, error) {
	spec, err := moduleByID("S3") // representative 8Gb D-die
	if err != nil {
		return report.DocSection{}, err
	}
	sidedStr, tempStr, _ := strings.Cut(key, "/")
	sided := characterize.SingleSided
	if sidedStr == "double" {
		sided = characterize.DoubleSided
	}
	tempC := 50.0
	if tempStr == "80" {
		tempC = 80
	}
	return onoffReport(spec, o, sided, tempC)
}

func workAppE(o Options, spec chipgen.ModuleSpec) ([][]string, error) {
	cfg := o.charConfig()
	cfg.Trials = 5
	taggons := []dram.TimePS{36 * dram.Nanosecond, 7800 * dram.Nanosecond, 70200 * dram.Nanosecond, 30 * dram.Millisecond}
	res, err := characterize.RepeatabilityStudy(spec, cfg, 50, taggons)
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, r := range res {
		row := []string{spec.ID, dram.FormatTime(r.TAggON)}
		for k := 1; k <= 5; k++ {
			row = append(row, report.Pct(r.Percent(k)/100))
		}
		rows = append(rows, append(row, fmt.Sprint(r.TotalFlips)))
	}
	return rows, nil
}

func mergeAppE(o Options, specs []chipgen.ModuleSpec, parts [][][]string) (*report.Doc, error) {
	headers := []string{"module", "tAggON", "1x", "2x", "3x", "4x", "5x", "flips"}
	return report.NewDoc(report.TableSection("Bitflip repeatability over 5 trials (Appendix E: majority occur in all 5)",
		headers, flattenRows(parts))), nil
}

func registerECC(id, title string, tAggON dram.TimePS) {
	work := func(o Options, spec chipgen.ModuleSpec) ([][]string, error) {
		cfg := o.charConfig()
		var rows [][]string
		for _, sided := range []characterize.Sidedness{characterize.SingleSided, characterize.DoubleSided} {
			c := cfg
			c.Sided = sided
			b, err := characterize.NewBench(spec, c, 80)
			if err != nil {
				return nil, err
			}
			locs := characterize.TestedLocations(c.Geometry, c.RowsToTest)
			flips, err := characterize.MaxACFlips(b, locs, tAggON, c)
			if err != nil {
				return nil, err
			}
			st := ecc.AnalyzeFlips(flips)
			codes := ecc.EvaluateCodes(flips, 8)
			rows = append(rows, []string{
				spec.ID, sided.String(),
				fmt.Sprint(st.Words1to2), fmt.Sprint(st.Words3to8), fmt.Sprint(st.WordsOver8),
				fmt.Sprint(st.MaxPerWord),
				fmt.Sprint(codes.SECDEDSilent), fmt.Sprint(codes.SECDEDDetected),
				fmt.Sprint(codes.ChipkillBeyond),
			})
		}
		return rows, nil
	}
	merge := func(o Options, specs []chipgen.ModuleSpec, parts [][][]string) (*report.Doc, error) {
		headers := []string{"module", "sided", "words 1-2", "words 3-8", "words >8", "max/word",
			"SECDED silent", "SECDED detected", "beyond Chipkill(x8)"}
		title2 := fmt.Sprintf("Erroneous 64-bit words at tAggON=%s, max activations, 80°C (§7.1)", dram.FormatTime(tAggON))
		return report.NewDoc(report.TableSection(title2, headers, flattenRows(parts))), nil
	}
	registerPerModule(id, title, work, merge)
}

func runTable1(Options) (*report.Doc, error) {
	headers := []string{"mfr", "die", "modules", "org", "date codes"}
	type key struct {
		mfr  chipgen.Manufacturer
		name string
	}
	count := map[key]int{}
	org := map[key]string{}
	dates := map[key][]string{}
	for _, s := range chipgen.Catalog() {
		k := key{s.Die.Mfr, s.Die.Name()}
		count[k]++
		org[k] = s.Org
		dates[k] = append(dates[k], s.DateCode)
	}
	var rows [][]string
	for _, d := range chipgen.DieRevisions() {
		k := key{d.Mfr, d.Name()}
		rows = append(rows, []string{
			"Mfr. " + string(d.Mfr), d.Name(), fmt.Sprint(count[k]), org[k], strings.Join(dedup(dates[k]), ","),
		})
	}
	return report.NewDoc(report.TableSection("Tested DDR4 DRAM modules (Table 1/5 inventory)",
		headers, rows)), nil
}

func dedup(vs []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
