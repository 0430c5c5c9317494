package dram

import "testing"

// retentionProbe leaks deterministically: RetentionAccel doubles per 10°C,
// ApplyFlips counts as flips any row whose retention stress exceeds 1.
type retentionProbe struct{ flips *int }

func (retentionProbe) Increments(_, _ TimePS, _ float64) Increments { return Increments{} }
func (retentionProbe) RetentionAccel(tempC float64) float64 {
	accel := 1.0
	for t := 50.0; t < tempC; t += 10 {
		accel *= 2
	}
	return accel
}
func (p retentionProbe) ApplyFlips(_, _ int, _ []byte, _ NeighborData, exp Exposure) int {
	if exp.Retention >= 1 {
		*p.flips = *p.flips + 1
		return 1
	}
	return 0
}

func TestRetentionIntegratesOverTemperatureSchedule(t *testing.T) {
	flips := 0
	geo := Geometry{Banks: 1, RowsPerBank: 16, RowBytes: 64}
	m := NewModule(geo, DDR4(), 50, retentionProbe{&flips})
	if err := m.InitRow(0, 0, 5, 0xFF); err != nil {
		t.Fatal(err)
	}
	// 0.3 s at 50°C (accel 1) + 0.2 s at 70°C (accel 4) = 1.1 stress-sec.
	m.SetTemperature(300*Millisecond, 70)
	m.restoreRowForTest(0, 5, 500*Millisecond)
	if flips != 1 {
		t.Fatalf("expected exactly one retention flip, got %d", flips)
	}

	// Same wall time entirely at 50°C: only 0.5 stress-sec — no flip.
	flips = 0
	m2 := NewModule(geo, DDR4(), 50, retentionProbe{&flips})
	if err := m2.InitRow(0, 0, 5, 0xFF); err != nil {
		t.Fatal(err)
	}
	m2.restoreRowForTest(0, 5, 500*Millisecond)
	if flips != 0 {
		t.Fatalf("expected no flip at constant 50C, got %d", flips)
	}
}

// restoreRowForTest exposes the internal restore path for retention tests.
func (m *Module) restoreRowForTest(bank, row int, at TimePS) {
	m.restoreRow(bank, row, at)
}

func TestInitRowErrors(t *testing.T) {
	m := testModule(nil)
	if err := m.InitRow(0, 9, 0, 0x00); err == nil {
		t.Error("bad bank must fail")
	}
	if err := m.InitRow(0, 0, 99999, 0x00); err == nil {
		t.Error("bad row must fail")
	}
}

func TestRestoreRowErrors(t *testing.T) {
	m := testModule(nil)
	if err := m.RestoreRow(0, 9, 0); err == nil {
		t.Error("bad bank must fail")
	}
	if err := m.RestoreRow(0, 0, -1); err == nil {
		t.Error("bad row must fail")
	}
}

// PeekRow returns the row's raw stored bytes without issuing commands and
// without materializing pending disturbance.
func (m *Module) PeekRow(bank, row int) []byte { return m.View(bank, row).Data }

func TestPeekRowSafety(t *testing.T) {
	m := testModule(nil)
	if m.PeekRow(0, 5) != nil {
		t.Error("untouched row should peek nil")
	}
	if m.PeekRow(-1, 5) != nil {
		t.Error("bad bank should peek nil")
	}
	if err := m.InitRow(0, 0, 5, 0xEE); err != nil {
		t.Fatal(err)
	}
	data := m.PeekRow(0, 5)
	if data == nil || data[0] != 0xEE {
		t.Error("peek should return contents")
	}
	data[0] = 0 // must be a copy
	if m.PeekRow(0, 5)[0] != 0xEE {
		t.Error("PeekRow must copy")
	}
}

func TestHammerCommandPathMatchesSpecTotalTime(t *testing.T) {
	m := testModule(probeDisturber{})
	spec := HammerSpec{Bank: 0, Rows: []int{10}, Count: 5, OnTime: 100 * Nanosecond, ExtraOff: 50 * Nanosecond}
	end, err := m.Hammer(0, spec)
	if err != nil {
		t.Fatal(err)
	}
	if end != spec.TotalTime(m.Timing) {
		t.Fatalf("end = %d, want %d", end, spec.TotalTime(m.Timing))
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(Second) != 1 || Seconds(Millisecond) != 1e-3 {
		t.Error("Seconds conversion")
	}
	if FromSeconds(0.5) != 500*Millisecond {
		t.Error("FromSeconds conversion")
	}
}
