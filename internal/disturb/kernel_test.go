package disturb

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/stats"
)

func testModel() *Model {
	geo := dram.Geometry{Banks: 2, RowsPerBank: 256, RowBytes: 1024}
	return NewModel(DefaultParams(), geo, 0xD1E5)
}

func TestPressKernelZeroBelowTRAS(t *testing.T) {
	m := testModel()
	if got := m.Increments(36*dram.Nanosecond, 15*dram.Nanosecond, 50).Press[1]; got != 0 {
		t.Fatalf("press at tRAS = %v, want 0", got)
	}
	if got := m.Increments(10*dram.Nanosecond, 15*dram.Nanosecond, 50).Press[1]; got != 0 {
		t.Fatalf("press below tRAS = %v, want 0", got)
	}
}

func TestPressKernelMonotonicInOnTime(t *testing.T) {
	m := testModel()
	f := func(a, b uint32) bool {
		ta := 36*dram.Nanosecond + dram.TimePS(a%1000000)*dram.Nanosecond
		tb := 36*dram.Nanosecond + dram.TimePS(b%1000000)*dram.Nanosecond
		if ta > tb {
			ta, tb = tb, ta
		}
		return m.Increments(ta, 15*dram.Nanosecond, 50).Press[1] <=
			m.Increments(tb, 15*dram.Nanosecond, 50).Press[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPressKernelAsymptoticallyLinear(t *testing.T) {
	// Beyond the knee, damage/act ∝ tAggON, which is exactly the paper's
	// ACmin×tAggON ≈ const observation (log-log slope −1, Obsv. 3).
	m := testModel()
	p1 := m.Increments(7800*dram.Nanosecond, 15*dram.Nanosecond, 50).Press[1]
	p2 := m.Increments(70200*dram.Nanosecond, 15*dram.Nanosecond, 50).Press[1]
	ratio := p2 / p1
	if ratio < 8.5 || ratio > 9.8 { // 70.2/7.8 = 9, ±10% for the knee
		t.Fatalf("press ratio 70.2us/7.8us = %v, want ≈9", ratio)
	}
}

func TestPressCrossSideSubAdditive(t *testing.T) {
	// The same total press exposure split across both sides flips no more
	// (and typically fewer) cells than delivered single-sided — the root of
	// Obsv. 13: single-sided RowPress overtakes double-sided at large
	// tAggON.
	m := testModel()
	single := filled(1024, 0xFF)
	double := filled(1024, 0xFF)
	nSingle := m.ApplyFlips(0, 77, single, dram.NeighborData{}, dram.Exposure{PressAbove: 0.12})
	nDouble := m.ApplyFlips(0, 77, double, dram.NeighborData{}, dram.Exposure{PressAbove: 0.06, PressBelow: 0.06})
	if nDouble > nSingle {
		t.Fatalf("double-sided press flipped more: %d > %d", nDouble, nSingle)
	}
}

func TestPressTemperatureScaling(t *testing.T) {
	m := testModel()
	on := 7800 * dram.Nanosecond
	p50 := m.Increments(on, 15*dram.Nanosecond, 50).Press[1]
	p80 := m.Increments(on, 15*dram.Nanosecond, 80).Press[1]
	ratio := p80 / p50
	want := m.Params().PressTempFactor30
	if math.Abs(ratio-want) > 0.05*want {
		t.Fatalf("press 80C/50C = %v, want ≈%v", ratio, want)
	}
	// Monotone in temperature between and beyond calibration points.
	p65 := m.Increments(on, 15*dram.Nanosecond, 65).Press[1]
	if !(p50 < p65 && p65 < p80) {
		t.Fatalf("press not monotone in T: %v %v %v", p50, p65, p80)
	}
}

func TestHammerKernelReferenceIsUnity(t *testing.T) {
	m := testModel()
	got := m.Increments(36*dram.Nanosecond, 15*dram.Nanosecond, 50).Hammer[1]
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("hammer at reference = %v, want 1", got)
	}
}

func TestHammerKernelGrowsWithOffTime(t *testing.T) {
	// Prior device-level works: read disturbance worsens with tAggOFF.
	m := testModel()
	h1 := m.Increments(36*dram.Nanosecond, 15*dram.Nanosecond, 50).Hammer[1]
	h2 := m.Increments(36*dram.Nanosecond, 255*dram.Nanosecond, 50).Hammer[1]
	h3 := m.Increments(36*dram.Nanosecond, 6*dram.Microsecond, 50).Hammer[1]
	if !(h1 < h2 && h2 < h3) {
		t.Fatalf("hammer not monotone in off time: %v %v %v", h1, h2, h3)
	}
}

func TestHammerKernelFadesAtLargeOnTime(t *testing.T) {
	m := testModel()
	h36 := m.Increments(36*dram.Nanosecond, 15*dram.Nanosecond, 50).Hammer[1]
	h78 := m.Increments(7800*dram.Nanosecond, 15*dram.Nanosecond, 50).Hammer[1]
	if h78 > 0.2*h36 {
		t.Fatalf("hammer at 7.8us = %v, should fade well below %v", h78, h36)
	}
}

func TestHammerMildBoostAtSmallOnTime(t *testing.T) {
	// The slow ACmin reduction between 36 ns and ~256 ns (Obsv. 3: only
	// ~1.17x at 186 ns) comes from a mild hammer boost.
	m := testModel()
	h36 := m.Increments(36*dram.Nanosecond, 15*dram.Nanosecond, 50).Hammer[1]
	h186 := m.Increments(186*dram.Nanosecond, 15*dram.Nanosecond, 50).Hammer[1]
	ratio := h186 / h36
	if ratio < 1.05 || ratio > 1.35 {
		t.Fatalf("hammer boost at 186ns = %v, want mild (1.05..1.35)", ratio)
	}
}

func TestDistanceDecay(t *testing.T) {
	m := testModel()
	inc := m.Increments(7800*dram.Nanosecond, 15*dram.Nanosecond, 50)
	for _, byDist := range [][dram.BlastRadius + 1]float64{inc.Press, inc.Hammer} {
		d1, d2, d3 := byDist[1], byDist[2], byDist[3]
		if !(d1 > d2 && d2 > d3 && d3 > 0) {
			t.Fatalf("distance decay broken: %v %v %v", d1, d2, d3)
		}
	}
	if inc.Hammer[0] != 0 || inc.Press[0] != 0 {
		t.Fatal("distance 0 lies outside the blast radius and must be 0")
	}
}

// refHammerIncrement and refPressIncrement evaluate the kernel for one
// distance at a time, unmemoized, multiplying the helpers in the order
// Increments must reproduce bit for bit. They are the differential
// reference for the memoized path.
func refHammerIncrement(p Params, onTime, offTime dram.TimePS, tempC float64, distance int) float64 {
	return p.hammerKernel(dram.Seconds(onTime), dram.Seconds(offTime), tempC) *
		p.HammerDistDecay[distance]
}

func refPressIncrement(p Params, onTime dram.TimePS, tempC float64, distance int) float64 {
	return p.pressKernel(dram.Seconds(onTime)) *
		p.pressTempFactor(tempC) *
		p.PressDistDecay[distance]
}

// memoHolds reports whether m's increment memo currently holds k.
func memoHolds(m *Model, k incKey) bool {
	for _, e := range m.memo[:m.memoLen] {
		if e.key == k {
			return true
		}
	}
	return false
}

// TestIncrementsMatchPerDistanceReference revisits many more activation
// conditions than the memo holds, in shuffled order, and demands bit
// equality with the per-distance reference on every call — memo hits,
// misses and evictions alike.
func TestIncrementsMatchPerDistanceReference(t *testing.T) {
	m := testModel()
	p := m.Params()
	ons := []dram.TimePS{10 * dram.Nanosecond, 36 * dram.Nanosecond, 66 * dram.Nanosecond,
		186 * dram.Nanosecond, 7800 * dram.Nanosecond, 70200 * dram.Nanosecond}
	offs := []dram.TimePS{15 * dram.Nanosecond, 255 * dram.Nanosecond, 6 * dram.Microsecond}
	temps := []float64{50, 65, 80}
	var keys []incKey
	for _, on := range ons {
		for _, off := range offs {
			for _, tc := range temps {
				keys = append(keys, incKey{on, off, tc})
			}
		}
	}
	// Three passes over every condition, each in a Fisher–Yates shuffled
	// order, with each visit followed by a revisit of a recent condition
	// so hits are certain.
	rng := stats.NewRNG(7)
	perm := make([]int, len(keys))
	var visits []incKey
	for pass := 0; pass < 3; pass++ {
		for i := range perm {
			perm[i] = i
		}
		for i := len(perm) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for i, j := range perm {
			visits = append(visits, keys[j])
			visits = append(visits, keys[perm[max(0, i-rng.Intn(incMemoSize))]])
		}
	}
	var hits, evictions int
	for _, k := range visits {
		if memoHolds(m, k) {
			hits++
		} else if m.memoLen == incMemoSize {
			evictions++
		}
		inc := m.Increments(k.on, k.off, k.tempC)
		for d := 1; d <= dram.BlastRadius; d++ {
			wantH := refHammerIncrement(p, k.on, k.off, k.tempC, d)
			wantP := refPressIncrement(p, k.on, k.tempC, d)
			if math.Float64bits(inc.Hammer[d]) != math.Float64bits(wantH) ||
				math.Float64bits(inc.Press[d]) != math.Float64bits(wantP) {
				t.Fatalf("%+v d=%d: got hammer %v press %v, want %v %v",
					k, d, inc.Hammer[d], inc.Press[d], wantH, wantP)
			}
		}
		if inc.Hammer[0] != 0 || inc.Press[0] != 0 {
			t.Fatalf("%+v: distance 0 = %v/%v, want 0", k, inc.Hammer[0], inc.Press[0])
		}
	}
	if len(keys) < 40 || hits == 0 || evictions == 0 {
		t.Fatalf("%d conditions, %d hits, %d evictions: memo not exercised", len(keys), hits, evictions)
	}
}

func TestRetentionAccelDoublesPer10C(t *testing.T) {
	m := testModel()
	if got := m.RetentionAccel(50); math.Abs(got-1) > 1e-12 {
		t.Fatalf("accel(50) = %v", got)
	}
	if got := m.RetentionAccel(80); math.Abs(got-8) > 1e-9 {
		t.Fatalf("accel(80) = %v, want 8", got)
	}
}

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := good
	bad.TrueCellFraction = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatal("TrueCellFraction 1.5 should be invalid")
	}
	bad = good
	bad.PressKneeS = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative knee should be invalid")
	}
	bad = good
	bad.HammerCellsPerRow = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative density should be invalid")
	}
}
