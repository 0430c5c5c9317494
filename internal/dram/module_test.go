package dram

import (
	"errors"
	"testing"
)

func testModule(dist Disturber) *Module {
	geo := Geometry{Banks: 2, RowsPerBank: 64, RowBytes: 256}
	return NewModule(geo, DDR4(), 50, dist)
}

func TestGeometryValidate(t *testing.T) {
	cases := []struct {
		geo Geometry
		ok  bool
	}{
		{Geometry{Banks: 1, RowsPerBank: 1, RowBytes: 64}, true},
		{Geometry{Banks: 0, RowsPerBank: 1, RowBytes: 64}, false},
		{Geometry{Banks: 1, RowsPerBank: 0, RowBytes: 64}, false},
		{Geometry{Banks: 1, RowsPerBank: 1, RowBytes: 65}, false},
		{Geometry{Banks: 1, RowsPerBank: 1, RowBytes: 0}, false},
	}
	for _, c := range cases {
		err := c.geo.Validate()
		if (err == nil) != c.ok {
			t.Errorf("Validate(%+v) err=%v, want ok=%v", c.geo, err, c.ok)
		}
	}
}

func TestActivatePrechargeCounters(t *testing.T) {
	m := testModule(nil)
	tm := m.Timing
	if err := m.Activate(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.Precharge(tm.TRAS, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.Activate(tm.TRAS+tm.TRP, 1, 5); err != nil {
		t.Fatal(err)
	}
	if c := m.Counters(); c != (Counters{Activates: 2, Precharges: 1}) {
		t.Fatalf("counters = %+v", c)
	}
	if m.Now() != tm.TRAS+tm.TRP {
		t.Fatalf("Now = %d, want %d", m.Now(), tm.TRAS+tm.TRP)
	}
}

func TestTimingViolations(t *testing.T) {
	m := testModule(nil)
	tm := m.Timing

	// PRE before tRAS.
	if err := m.Activate(0, 0, 1); err != nil {
		t.Fatal(err)
	}
	err := m.Precharge(tm.TRAS-1, 0)
	var te *TimingError
	if !errors.As(err, &te) {
		t.Fatalf("early PRE should be a TimingError, got %v", err)
	}
	if err := m.Precharge(tm.TRAS, 0); err != nil {
		t.Fatal(err)
	}

	// ACT before tRP.
	if err := m.Activate(tm.TRAS+tm.TRP-1, 0, 2); !errors.As(err, &te) {
		t.Fatalf("early ACT should be a TimingError, got %v", err)
	}
	if err := m.Activate(tm.TRAS+tm.TRP, 0, 2); err != nil {
		t.Fatal(err)
	}

	// Double ACT.
	if err := m.Activate(tm.TRAS*10, 0, 3); !errors.As(err, &te) {
		t.Fatalf("ACT on open bank should fail, got %v", err)
	}

	// PRE with no open row on other bank.
	if err := m.Precharge(tm.TRAS*100, 1); !errors.As(err, &te) {
		t.Fatalf("PRE on idle bank should fail, got %v", err)
	}
}

func TestAddressErrors(t *testing.T) {
	m := testModule(nil)
	var ae *AddressError
	if err := m.Activate(0, 99, 0); !errors.As(err, &ae) {
		t.Fatalf("bad bank should be AddressError, got %v", err)
	}
	if err := m.Activate(0, 0, 9999); !errors.As(err, &ae) {
		t.Fatalf("bad row should be AddressError, got %v", err)
	}
}

func TestInitRowAndFetchRow(t *testing.T) {
	m := testModule(nil)
	if err := m.InitRow(0, 0, 7, 0x55); err != nil {
		t.Fatal(err)
	}
	data, _, err := m.FetchRow(Microsecond, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != m.Geo.RowBytes {
		t.Fatalf("row length %d", len(data))
	}
	for _, b := range data {
		if b != 0x55 {
			t.Fatalf("byte %#x, want 0x55", b)
		}
	}
}

func TestTemperatureSchedule(t *testing.T) {
	m := testModule(nil)
	m.SetTemperature(Millisecond, 80)
	if got := m.TemperatureAt(0); got != 50 {
		t.Errorf("T(0) = %v, want 50", got)
	}
	if got := m.TemperatureAt(Millisecond); got != 80 {
		t.Errorf("T(1ms) = %v, want 80", got)
	}
	if got := m.TemperatureAt(2 * Millisecond); got != 80 {
		t.Errorf("T(2ms) = %v, want 80", got)
	}
}

func TestFormatTime(t *testing.T) {
	cases := map[TimePS]string{
		36 * Nanosecond:   "36ns",
		7800 * Nanosecond: "7.8us",
		30 * Millisecond:  "30ms",
	}
	for in, want := range cases {
		if got := FormatTime(in); got != want {
			t.Errorf("FormatTime(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestTimingDerived(t *testing.T) {
	tm := DDR4()
	if tm.TRC() != tm.TRAS+tm.TRP {
		t.Error("TRC mismatch")
	}
	if tm.RefreshesPerWindow() != 8205 { // 64ms / 7.8us
		t.Errorf("RefreshesPerWindow = %d", tm.RefreshesPerWindow())
	}
}

func TestDataPatternBytes(t *testing.T) {
	// Table 2 of the paper.
	cases := []struct {
		p          DataPattern
		agg, vict  byte
		wantString string
	}{
		{CheckerBoard, 0xAA, 0x55, "CB"},
		{CheckerBoardI, 0x55, 0xAA, "CBI"},
		{RowStripe, 0xFF, 0x00, "RS"},
		{RowStripeI, 0x00, 0xFF, "RSI"},
		{ColStripe, 0x55, 0x55, "CS"},
		{ColStripeI, 0xAA, 0xAA, "CSI"},
	}
	for _, c := range cases {
		if c.p.AggressorByte() != c.agg || c.p.VictimByte() != c.vict {
			t.Errorf("%v bytes = %#x/%#x, want %#x/%#x",
				c.p, c.p.AggressorByte(), c.p.VictimByte(), c.agg, c.vict)
		}
		if c.p.String() != c.wantString {
			t.Errorf("String = %q, want %q", c.p.String(), c.wantString)
		}
	}
}
