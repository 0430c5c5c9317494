package chipgen

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dram"
)

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) != 21 {
		t.Fatalf("catalog has %d modules, want 21 (Table 5)", len(cat))
	}
	ids := make(map[string]bool)
	perMfr := map[Manufacturer]int{}
	for _, s := range cat {
		if ids[s.ID] {
			t.Errorf("duplicate module id %s", s.ID)
		}
		ids[s.ID] = true
		perMfr[s.Die.Mfr]++
	}
	if perMfr[MfrS] != 8 || perMfr[MfrH] != 6 || perMfr[MfrM] != 7 {
		t.Errorf("per-mfr module counts = %v, want S:8 H:6 M:7", perMfr)
	}
}

func TestDieRevisionCount(t *testing.T) {
	dies := DieRevisions()
	if len(dies) != 12 {
		t.Fatalf("%d die revisions, want 12 (Table 1)", len(dies))
	}
	for _, d := range dies {
		if err := d.Params.Validate(); err != nil {
			t.Errorf("die %s/%s params invalid: %v", d.Mfr, d.Name(), err)
		}
	}
}

func TestFindDie(t *testing.T) {
	d, ok := FindDie(MfrS, 8, "B")
	if !ok || d.Name() != "8Gb B-Die" {
		t.Fatalf("FindDie(S,8,B) = %+v, %v", d, ok)
	}
	if _, ok := FindDie(MfrS, 2, "Z"); ok {
		t.Fatal("nonexistent die found")
	}
}

func TestByID(t *testing.T) {
	s, ok := ByID("H4")
	if !ok || s.Die.Mfr != MfrH || s.Die.DensityGb != 4 {
		t.Fatalf("ByID(H4) = %+v, %v", s, ok)
	}
	if _, ok := ByID("Z9"); ok {
		t.Fatal("nonexistent module found")
	}
}

func TestRepresentativeCoversAllDies(t *testing.T) {
	reps := Representative()
	if len(reps) != 12 {
		t.Fatalf("%d representative modules, want 12", len(reps))
	}
}

func TestSeedsDiffer(t *testing.T) {
	seen := make(map[uint64]string)
	for _, s := range Catalog() {
		if prev, ok := seen[s.Seed()]; ok {
			t.Fatalf("modules %s and %s share a seed", prev, s.ID)
		}
		seen[s.Seed()] = s.ID
	}
}

func TestCalibrateLogNormalRoundTrip(t *testing.T) {
	// The calibrated distribution must place its 1/(lambda+1) quantile at
	// the average per-row minimum anchor.
	logMed, logSig := calibrateLogNormal(48e-3, 12.4e-3, 15)
	q := math.Exp(logMed + invPhi(1.0/16)*logSig)
	if math.Abs(q-48e-3)/48e-3 > 1e-9 {
		t.Fatalf("per-row-min quantile = %v, want 0.048", q)
	}
	qMin := math.Exp(logMed + invPhi(1.0/(3072*15))*logSig)
	if math.Abs(qMin-12.4e-3)/12.4e-3 > 1e-9 {
		t.Fatalf("global-min quantile = %v, want 0.0124", qMin)
	}
}

func TestCalibratePanicsOnBadAnchors(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for min >= avg")
		}
	}()
	calibrateLogNormal(1, 2, 10)
}

func TestInvPhi(t *testing.T) {
	cases := map[float64]float64{
		0.5:    0,
		0.8413: 1.0,
		0.0228: -2.0,
	}
	for p, want := range cases {
		if got := invPhi(p); math.Abs(got-want) > 5e-3 {
			t.Errorf("invPhi(%v) = %v, want %v", p, got, want)
		}
	}
}

// TestModuleEndToEndHammer: hammering a calibrated weak die at RowHammer
// conditions far beyond its ACmin must flip victim bits; a press-immune die
// must not flip under long tAggON within the test window.
func TestModuleEndToEndHammer(t *testing.T) {
	geo := dram.Geometry{Banks: 1, RowsPerBank: 128, RowBytes: 1024}

	weak, _ := ByID("S3") // 8Gb D-die: avg hammer ACmin 42K
	mod, _ := weak.NewModule(geo, 50)
	for r := 40; r <= 46; r++ {
		if err := mod.InitRow(0, 0, r, 0x00); err != nil { // discharged: hammer-eligible
			t.Fatal(err)
		}
	}
	end, err := mod.HammerBatch(dram.Microsecond, dram.HammerSpec{
		Bank: 0, Rows: []int{43}, Count: 600000, OnTime: 36 * dram.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	for _, r := range []int{42, 44} {
		data, _, err := mod.FetchRow(end+dram.Microsecond, 0, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range data {
			for i := 0; i < 8; i++ {
				if b&(1<<i) != 0 {
					flips++
				}
			}
		}
		end = mod.Now()
	}
	if flips == 0 {
		t.Error("600K hammer activations on an 8Gb D-die produced no flips")
	}
}

func TestPressImmuneDie(t *testing.T) {
	geo := dram.Geometry{Banks: 1, RowsPerBank: 128, RowBytes: 1024}
	immune, _ := ByID("M0") // 8Gb B-die from Mfr. M: no RowPress bitflips
	mod, _ := immune.NewModule(geo, 50)
	for r := 40; r <= 46; r++ {
		if err := mod.InitRow(0, 0, r, 0xFF); err != nil { // charged: press-eligible
			t.Fatal(err)
		}
	}
	// AC=1 with tAggON = 50 ms (within a refresh-window-scale budget).
	end, err := mod.HammerBatch(dram.Microsecond, dram.HammerSpec{
		Bank: 0, Rows: []int{43}, Count: 1, OnTime: 50 * dram.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{42, 44} {
		data, _, err := mod.FetchRow(end+dram.Microsecond, 0, r)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range data {
			if b != 0xFF {
				t.Fatalf("press-immune die flipped row %d byte %d: %#x", r, i, b)
			}
		}
		end = mod.Now()
	}
}

// TestPressSingleActivation: on a vulnerable die a single 50 ms activation
// flips bits in some rows (Obsv. 2: ACmin = 1 in extreme cases).
func TestPressSingleActivation(t *testing.T) {
	geo := dram.Geometry{Banks: 1, RowsPerBank: 512, RowBytes: 1024}
	spec, _ := ByID("S3")
	mod, _ := spec.NewModule(geo, 50)
	flips := 0
	now := dram.TimePS(dram.Microsecond)
	for agg := 10; agg < 500; agg += 10 {
		for d := -1; d <= 1; d++ {
			if err := mod.InitRow(now, 0, agg+d, 0xFF); err != nil {
				t.Fatal(err)
			}
		}
		end, err := mod.HammerBatch(now, dram.HammerSpec{
			Bank: 0, Rows: []int{agg}, Count: 1, OnTime: 50 * dram.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []int{agg - 1, agg + 1} {
			data, _, err := mod.FetchRow(end, 0, r)
			if err != nil {
				t.Fatal(err)
			}
			end = mod.Now() + dram.Microsecond
			for _, b := range data {
				if b != 0xFF {
					flips++
				}
			}
		}
		now = end + dram.Microsecond
	}
	if flips == 0 {
		t.Error("no rows with ACmin=1 at tAggON=50ms on a vulnerable die")
	}
}

// TestTablesAreIsolatedCopies: the die and module tables are built once
// per process, so every exported slice must be the caller's own copy —
// a caller mutating one must not leak into later lookups.
func TestTablesAreIsolatedCopies(t *testing.T) {
	wantS3, _ := ByID("S3")
	wantDie, _ := FindDie(MfrS, 8, "D")

	cat := Catalog()
	cat[3].ID = "mutated"
	cat[3].Die.Params.HammerLogMedian = -1
	dies := DieRevisions()
	for i := range dies {
		dies[i].Rev = "Z"
		dies[i].Params.PressLogSigma = -1
	}
	rep := Representative()
	rep[0].ID = "mutated"
	rep[0].Die.Params.TrueCellFraction = -1

	if got := Catalog(); got[3].ID != "S3" || got[3] != wantS3 {
		t.Errorf("Catalog()[3] after mutation = %s, want the original S3", got[3].ID)
	}
	if got := DieRevisions(); got[2].Rev != "D" || got[2] != wantDie {
		t.Errorf("DieRevisions()[2] after mutation = %s, want the original 8Gb D-die", got[2].Name())
	}
	if got := Representative(); got[0].ID != "S0" || got[0].Die.Params.TrueCellFraction != 1 {
		t.Errorf("Representative()[0] after mutation = %s (true-cell fraction %v), want the original S0",
			got[0].ID, got[0].Die.Params.TrueCellFraction)
	}
	if got, ok := ByID("S3"); !ok || got != wantS3 {
		t.Errorf("ByID(S3) after mutation = %+v, %v; want the original spec", got.Die, ok)
	}
	if got, ok := FindDie(MfrS, 8, "D"); !ok || got != wantDie {
		t.Errorf("FindDie(S, 8, D) after mutation = %+v, %v; want the original die", got, ok)
	}
	if _, ok := ByID("mutated"); ok {
		t.Error("ByID found an id written into a returned copy")
	}
}

// TestByIDConcurrent: lookups in the shared module table from many
// goroutines at once agree with the catalog (run under -race).
func TestByIDConcurrent(t *testing.T) {
	want := Catalog()
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(want))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, w := range want {
				if got, ok := ByID(w.ID); !ok || got != w {
					errs <- w.ID
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for id := range errs {
		t.Errorf("concurrent ByID(%s) disagreed with Catalog()", id)
	}
}
