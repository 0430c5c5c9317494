package chipgen

import (
	"slices"
	"sync"

	"repro/internal/disturb"
)

// dieAnchor is the compact calibration record for one die revision,
// transcribed from Table 5 of the paper (50 °C columns; thresholds in the
// model's native units — activations for hammer, seconds of effective
// on-time for press).
type dieAnchor struct {
	mfr       Manufacturer
	densityGb int
	rev       string

	hammerAvgMin    float64 // mean per-row ACmin at tAggON = 36 ns
	hammerGlobalMin float64 // min across characterized rows
	hammerLambda    float64 // vulnerable cells per 8 KiB row
	hammerTemp30    float64 // hammer damage multiplier per +30 °C

	pressAvgK    float64 // mean per-row min press threshold (s) ≈ avg tAggONmin @AC=1
	pressMinK    float64 // global min press threshold (s)
	pressLambda  float64 // press-vulnerable cells per 8 KiB row
	pressTemp30  float64 // press damage multiplier per +30 °C (Obsv. 9/11)
	trueCellFrac float64 // Fig. 12 directionality

	pressCplCharged80 float64 // 80 °C charged-aggressor coupling (Fig. 19 heatmaps)
}

// dieAnchors: twelve die revisions of Table 1. Newer revisions (later
// letters) have denser, weaker cells — RowPress worsens with technology
// scaling (Obsv. 4).
var dieAnchors = []dieAnchor{
	// Mfr. S (Samsung)
	{mfr: MfrS, densityGb: 8, rev: "B", hammerAvgMin: 270e3, hammerGlobalMin: 38e3, hammerLambda: 48, hammerTemp30: 0.95,
		pressAvgK: 48e-3, pressMinK: 12.4e-3, pressLambda: 15, pressTemp30: 1.9, trueCellFrac: 1.0, pressCplCharged80: 0.55},
	{mfr: MfrS, densityGb: 8, rev: "C", hammerAvgMin: 110e3, hammerGlobalMin: 23e3, hammerLambda: 52, hammerTemp30: 0.95,
		pressAvgK: 49e-3, pressMinK: 13e-3, pressLambda: 25, pressTemp30: 1.7, trueCellFrac: 1.0, pressCplCharged80: 0.55},
	{mfr: MfrS, densityGb: 8, rev: "D", hammerAvgMin: 42e3, hammerGlobalMin: 12e3, hammerLambda: 60, hammerTemp30: 0.95,
		pressAvgK: 39e-3, pressMinK: 9.2e-3, pressLambda: 60, pressTemp30: 1.75, trueCellFrac: 1.0, pressCplCharged80: 0.55},
	{mfr: MfrS, densityGb: 4, rev: "F", hammerAvgMin: 122e3, hammerGlobalMin: 20e3, hammerLambda: 50, hammerTemp30: 0.95,
		pressAvgK: 45e-3, pressMinK: 13.5e-3, pressLambda: 30, pressTemp30: 2.7, trueCellFrac: 1.0, pressCplCharged80: 0.55},

	// Mfr. H (SK Hynix)
	{mfr: MfrH, densityGb: 4, rev: "A", hammerAvgMin: 382e3, hammerGlobalMin: 83e3, hammerLambda: 40, hammerTemp30: 1.05,
		// No press bitflips at 50 °C within the 60 ms window (Obsv. 3
		// footnote 8): thresholds sit beyond the window and only the 80 °C
		// temperature factor brings a sliver of cells in reach (Obsv. 10).
		pressAvgK: 144e-3, pressMinK: 80e-3, pressLambda: 10, pressTemp30: 2.8, trueCellFrac: 1.0, pressCplCharged80: 0.30},
	{mfr: MfrH, densityGb: 4, rev: "X", hammerAvgMin: 119e3, hammerGlobalMin: 20e3, hammerLambda: 45, hammerTemp30: 1.05,
		pressAvgK: 53.5e-3, pressMinK: 21.8e-3, pressLambda: 35, pressTemp30: 3.8, trueCellFrac: 1.0, pressCplCharged80: 0.30},
	{mfr: MfrH, densityGb: 16, rev: "A", hammerAvgMin: 117e3, hammerGlobalMin: 21e3, hammerLambda: 45, hammerTemp30: 1.05,
		pressAvgK: 50e-3, pressMinK: 14.3e-3, pressLambda: 40, pressTemp30: 4.0, trueCellFrac: 1.0, pressCplCharged80: 0.30},
	{mfr: MfrH, densityGb: 16, rev: "C", hammerAvgMin: 77e3, hammerGlobalMin: 14e3, hammerLambda: 48, hammerTemp30: 1.05,
		pressAvgK: 51.6e-3, pressMinK: 9.8e-3, pressLambda: 45, pressTemp30: 2.3, trueCellFrac: 1.0, pressCplCharged80: 0.30},

	// Mfr. M (Micron)
	{mfr: MfrM, densityGb: 8, rev: "B", hammerAvgMin: 386e3, hammerGlobalMin: 87e3, hammerLambda: 40, hammerTemp30: 1.05,
		// Immune to RowPress at both temperatures (Table 5 "No Bitflip").
		pressAvgK: 20, pressMinK: 8, pressLambda: 5, pressTemp30: 1.5, trueCellFrac: 0.75, pressCplCharged80: 0.60},
	{mfr: MfrM, densityGb: 16, rev: "B", hammerAvgMin: 116e3, hammerGlobalMin: 24e3, hammerLambda: 42, hammerTemp30: 1.05,
		pressAvgK: 56.7e-3, pressMinK: 35.2e-3, pressLambda: 20, pressTemp30: 1.25, trueCellFrac: 0.75, pressCplCharged80: 0.60},
	{mfr: MfrM, densityGb: 16, rev: "E", hammerAvgMin: 39e3, hammerGlobalMin: 10.5e3, hammerLambda: 55, hammerTemp30: 1.05,
		// Anti-cell-dominant layout: press flips read as 0→1 (Obsv. 8).
		pressAvgK: 46.7e-3, pressMinK: 9e-3, pressLambda: 50, pressTemp30: 2.0, trueCellFrac: 0.25, pressCplCharged80: 0.60},
	{mfr: MfrM, densityGb: 16, rev: "F", hammerAvgMin: 31e3, hammerGlobalMin: 8.7e3, hammerLambda: 55, hammerTemp30: 1.05,
		pressAvgK: 50.9e-3, pressMinK: 17.9e-3, pressLambda: 45, pressTemp30: 2.7, trueCellFrac: 0.75, pressCplCharged80: 0.60},
}

// buildParams expands an anchor into the full model parameter set.
func (a dieAnchor) buildParams() disturb.Params {
	p := disturb.DefaultParams()
	p.HammerTempFactor30 = a.hammerTemp30
	p.HammerCellsPerRow = a.hammerLambda
	p.HammerLogMedian, p.HammerLogSigma = calibrateLogNormal(a.hammerAvgMin, a.hammerGlobalMin, a.hammerLambda)
	p.PressTempFactor30 = a.pressTemp30
	p.PressCellsPerRow = a.pressLambda
	p.PressLogMedian, p.PressLogSigma = calibrateLogNormal(a.pressAvgK, a.pressMinK, a.pressLambda)
	p.PressCplCharged80 = a.pressCplCharged80
	p.TrueCellFraction = a.trueCellFrac
	return p
}

// dieTable is the twelve calibrated die revisions, built once per
// process: the anchors are static, so every lookup shares one
// calibration.
var dieTable = sync.OnceValue(func() []DieRevision {
	out := make([]DieRevision, 0, len(dieAnchors))
	for _, a := range dieAnchors {
		out = append(out, DieRevision{
			Mfr:       a.mfr,
			DensityGb: a.densityGb,
			Rev:       a.rev,
			Params:    a.buildParams(),
		})
	}
	return out
})

// DieRevisions returns the twelve calibrated die revisions of Table 1.
// The slice is the caller's own copy.
func DieRevisions() []DieRevision { return slices.Clone(dieTable()) }

// FindDie returns the die revision for (mfr, densityGb, rev); ok reports
// whether it exists.
func FindDie(mfr Manufacturer, densityGb int, rev string) (DieRevision, bool) {
	for _, d := range dieTable() {
		if d.Mfr == mfr && d.DensityGb == densityGb && d.Rev == rev {
			return d, true
		}
	}
	return DieRevision{}, false
}

// moduleRecord mirrors one row of Table 5.
type moduleRecord struct {
	id, dimmPart, dramPart string
	mfr                    Manufacturer
	densityGb              int
	rev, org, dateCode     string
}

var moduleRecords = []moduleRecord{
	{"S0", "M393A1K43BB1-CTD", "K4A8G085WB-BCTD", MfrS, 8, "B", "x8", "20-53"},
	{"S1", "M393A1K43BB1-CTD", "K4A8G085WB-BCTD", MfrS, 8, "B", "x8", "20-53"},
	{"S2", "M378A2K43CB1-CTD", "K4A8G085WC-BCTD", MfrS, 8, "C", "x8", "N/A"},
	{"S3", "M378A1K43DB2-CTD", "K4A8G085WD-BCTD", MfrS, 8, "D", "x8", "21-10"},
	{"S4", "M378A1K43DB2-CTD", "K4A8G085WD-BCTD", MfrS, 8, "D", "x8", "21-10"},
	{"S5", "M378A1K43DB2-CTD", "K4A8G085WD-BCTD", MfrS, 8, "D", "x8", "21-10"},
	{"S6", "F4-2400C17S-8GNT", "K4A4G085WF-BCTD", MfrS, 4, "F", "x8", "Mar-21"},
	{"S7", "F4-2400C17S-8GNT", "K4A4G085WF-BCTD", MfrS, 4, "F", "x8", "Mar-21"},
	{"H0", "HMAA4GU6AJR8N-XN", "H5ANAG8NAJR-XN", MfrH, 16, "A", "x8", "20-51"},
	{"H1", "HMAA4GU6AJR8N-XN", "H5ANAG8NAJR-XN", MfrH, 16, "A", "x8", "20-51"},
	{"H2", "HMAA4GU7CJR8N-XN", "H5ANAG8NCJR-XN", MfrH, 16, "C", "x8", "21-36"},
	{"H3", "HMAA4GU7CJR8N-XN", "H5ANAG8NCJR-XN", MfrH, 16, "C", "x8", "21-36"},
	{"H4", "KVR24R17S8/4", "H5AN4G8NAFR-UHC", MfrH, 4, "A", "x8", "19-46"},
	{"H5", "CMV4GX4M1A2133C15", "N/A", MfrH, 4, "X", "x8", "N/A"},
	{"M0", "MTA18ASF2G72PZ-2G3B1", "MT40A2G4WE-083E:B", MfrM, 8, "B", "x4", "N/A"},
	{"M1", "MTA4ATF1G64HZ-3G2B2", "MT40A1G16RC-062E:B", MfrM, 16, "B", "x16", "21-26"},
	{"M2", "MTA4ATF1G64HZ-3G2B2", "MT40A1G16RC-062E:B", MfrM, 16, "B", "x16", "21-26"},
	{"M3", "MTA36ASF8G72PZ-2G9E1", "MT40A4G4JC-062E:E", MfrM, 16, "E", "x4", "20-14"},
	{"M4", "MTA4ATF1G64HZ-3G2E1", "MT40A1G16KD-062E:E", MfrM, 16, "E", "x16", "20-46"},
	{"M5", "MTA4ATF1G64HZ-3G2E1", "MT40A1G16KD-062E:E", MfrM, 16, "E", "x16", "20-46"},
	{"M6", "MTA4ATF1G64HZ-3G2F1", "MT40A1G16TB-062E:F", MfrM, 16, "F", "x16", "21-50"},
}

// moduleTable holds the 21 module specs of Table 5 and the
// representative subset, built once per process from the static records.
type moduleTable struct {
	specs          []ModuleSpec
	representative []ModuleSpec
}

var modules = sync.OnceValue(func() moduleTable {
	var t moduleTable
	seen := make(map[string]bool)
	for _, r := range moduleRecords {
		die, ok := FindDie(r.mfr, r.densityGb, r.rev)
		if !ok {
			panic("chipgen: module references unknown die " + r.id)
		}
		s := ModuleSpec{
			ID:       r.id,
			DIMMPart: r.dimmPart,
			DRAMPart: r.dramPart,
			Die:      die,
			Org:      r.org,
			DateCode: r.dateCode,
		}
		t.specs = append(t.specs, s)
		if key := string(s.Die.Mfr) + s.Die.Name(); !seen[key] {
			seen[key] = true
			t.representative = append(t.representative, s)
		}
	}
	return t
})

// Catalog returns the 21 module specs of Table 5, each bound to its die
// revision's calibrated parameters and a module-unique seed. The slice is
// the caller's own copy.
func Catalog() []ModuleSpec { return slices.Clone(modules().specs) }

// ByID returns the module spec with the given Table 5 id.
func ByID(id string) (ModuleSpec, bool) {
	specs := modules().specs
	for i := range specs {
		if specs[i].ID == id {
			return specs[i], true
		}
	}
	return ModuleSpec{}, false
}

// Representative returns one module per die revision (the first in catalog
// order), the set most figure sweeps iterate over. The slice is the
// caller's own copy.
func Representative() []ModuleSpec { return slices.Clone(modules().representative) }
