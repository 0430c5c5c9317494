package bender

import (
	"testing"

	"repro/internal/chipgen"
	"repro/internal/dram"
)

func newTestBench(t *testing.T, id string) *Bench {
	t.Helper()
	spec, ok := chipgen.ByID(id)
	if !ok {
		t.Fatalf("unknown module %s", id)
	}
	geo := dram.Geometry{Banks: 2, RowsPerBank: 1024, RowBytes: 8192}
	b, err := New(spec, geo, 1, 50)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchSetTemperatureAdvancesClockAndModule(t *testing.T) {
	b := newTestBench(t, "S0")
	before := b.Now()
	if err := b.SetTemperature(80); err != nil {
		t.Fatal(err)
	}
	if b.Now() <= before {
		t.Error("thermal settling should take simulated time")
	}
	if got := b.Mod.TemperatureAt(b.Now()); got != 80 {
		t.Errorf("module temp = %v", got)
	}
}

func TestBenchRejectsBadBank(t *testing.T) {
	spec, _ := chipgen.ByID("S0")
	_, err := New(spec, dram.DefaultGeometry(), 99, 50)
	if err == nil {
		t.Fatal("bank 99 should fail")
	}
}
