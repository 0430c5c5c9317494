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
	b, err := New(spec, WithGeometry(geo), WithBank(1), WithTemperature(50))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchWriteReadRoundTrip(t *testing.T) {
	b := newTestBench(t, "S0")
	if err := b.WriteRow(100, 0x55); err != nil {
		t.Fatal(err)
	}
	data, err := b.ReadRow(100)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range data {
		if v != 0x55 {
			t.Fatalf("byte %d = %#x", i, v)
		}
	}
}

func TestBenchCheckRowNoFlips(t *testing.T) {
	b := newTestBench(t, "S0")
	if err := b.WriteRow(50, 0xAA); err != nil {
		t.Fatal(err)
	}
	flips, err := b.CheckRow(50, 0xAA)
	if err != nil {
		t.Fatal(err)
	}
	if len(flips) != 0 {
		t.Fatalf("unexpected flips: %d", len(flips))
	}
}

func TestBenchHammerInducesFlips(t *testing.T) {
	b := newTestBench(t, "S3") // weak 8Gb D-die
	agg := 500
	victims := []int{}
	for d := 1; d <= 1; d++ {
		below, above, ok := b.RowMap.PhysicalNeighbors(agg, d)
		if !ok {
			t.Fatal("no neighbors")
		}
		victims = append(victims, below, above)
	}
	for _, v := range victims {
		if err := b.WriteRow(v, 0x00); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.WriteRow(agg, 0xFF); err != nil {
		t.Fatal(err)
	}
	if err := b.Hammer([]int{agg}, 800_000, 36*dram.Nanosecond, 0); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range victims {
		flips, err := b.CheckRow(v, 0x00)
		if err != nil {
			t.Fatal(err)
		}
		total += len(flips)
	}
	if total == 0 {
		t.Fatal("800K activations on D-die produced no flips")
	}
}

func TestBenchPressFlipsWithFewActivations(t *testing.T) {
	b := newTestBench(t, "S3")
	total := 0
	// ~55 ms of 7.8 µs activations per aggressor: rows whose weakest press
	// cell sits below that exposure flip (the D-die average is ~39 ms).
	for agg := 100; agg <= 900; agg += 100 {
		below, above, _ := b.RowMap.PhysicalNeighbors(agg, 1)
		for _, v := range []int{below, above} {
			if err := b.WriteRow(v, 0xFF); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.WriteRow(agg, 0xAA); err != nil {
			t.Fatal(err)
		}
		if err := b.Hammer([]int{agg}, 7000, 7800*dram.Nanosecond, 0); err != nil {
			t.Fatal(err)
		}
		for _, v := range []int{below, above} {
			flips, err := b.CheckRow(v, 0xFF)
			if err != nil {
				t.Fatal(err)
			}
			total += len(flips)
			for _, f := range flips {
				if !f.From {
					t.Fatalf("press flip in wrong direction at row %d byte %d", f.LogicalRow, f.Byte)
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("RowPress at 7.8us x 7000 activations produced no flips on D-die")
	}
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
	if b.Temperature() != 80 {
		t.Errorf("bench temp = %v", b.Temperature())
	}
	if got := b.Mod.TemperatureAt(b.Now()); got != 80 {
		t.Errorf("module temp = %v", got)
	}
}

func TestBenchRejectsBadBank(t *testing.T) {
	spec, _ := chipgen.ByID("S0")
	_, err := New(spec, WithBank(99))
	if err == nil {
		t.Fatal("bank 99 should fail")
	}
}
