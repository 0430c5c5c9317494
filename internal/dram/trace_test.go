package dram

import (
	"errors"
	"testing"
)

// traceModule builds a module on the probe disturber so the equivalence
// test compares real exposure accrual, not all-zero increments.
func traceModule() *Module {
	return NewModule(DefaultGeometry(), DDR4(), 50, probeDisturber{})
}

// TestPlayTraceMatchesHammer pins the equivalence contract: a uniform
// trace must leave the module in the same observable state as the
// equivalent HammerSpec loop.
func TestPlayTraceMatchesHammer(t *testing.T) {
	geo := DefaultGeometry()
	timing := DDR4()
	spec := HammerSpec{Bank: 1, Rows: []int{100, 102}, Count: 64, OnTime: timing.TRAS, ExtraOff: 7 * Nanosecond}

	viaHammer := traceModule()
	endH, err := viaHammer.Hammer(0, spec)
	if err != nil {
		t.Fatal(err)
	}

	viaTrace := traceModule()
	endT, err := viaTrace.PlayTrace(0, 1, spec.Count, func(i int) Slot {
		return Slot{Row: spec.Rows[i%len(spec.Rows)], OnTime: spec.OnTime, ExtraOff: spec.ExtraOff}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}

	if endH != endT {
		t.Fatalf("completion times differ: hammer=%d trace=%d", endH, endT)
	}
	ch, ct := viaHammer.Counters(), viaTrace.Counters()
	if ch.Activates != ct.Activates || ch.Precharges != ct.Precharges {
		t.Fatalf("counters differ: hammer=%+v trace=%+v", ch, ct)
	}
	for row := 95; row < 108; row++ {
		if eh, et := viaHammer.View(1, row).Exp, viaTrace.View(1, row).Exp; eh != et {
			t.Fatalf("row %d exposure differs: hammer=%+v trace=%+v", row, eh, et)
		}
	}
	_ = geo
}

// TestPlayTraceObserver pins observer semantics: called once per slot,
// in order, at the PRE instant, and an observer error aborts playback.
func TestPlayTraceObserver(t *testing.T) {
	m := traceModule()
	timing := m.Timing
	var seen []int
	var times []TimePS
	sentinel := errors.New("stop")
	end, err := m.PlayTrace(0, 0, 10, func(i int) Slot {
		return Slot{Row: 50 + i%2, OnTime: timing.TRAS}
	}, func(i int, s Slot, now TimePS) error {
		seen = append(seen, i)
		times = append(times, now)
		if i == 4 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
	if len(seen) != 5 {
		t.Fatalf("observer saw %d slots, want 5", len(seen))
	}
	for i, at := range times {
		want := TimePS(i)*(timing.TRAS+timing.TRP) + timing.TRAS
		if at != want {
			t.Fatalf("slot %d observed at %d, want PRE instant %d", i, at, want)
		}
	}
	if got := m.Counters().Activates; got != 5 {
		t.Fatalf("aborted trace issued %d ACTs, want 5", got)
	}
	if end != times[4] {
		t.Fatalf("aborted trace returned %d, want last PRE %d", end, times[4])
	}
}

// TestPlayTraceValidation pins the error cases.
func TestPlayTraceValidation(t *testing.T) {
	m := traceModule()
	if _, err := m.PlayTrace(0, 99, 1, func(int) Slot { return Slot{Row: 0, OnTime: m.Timing.TRAS} }, nil); err == nil {
		t.Fatal("bad bank accepted")
	}
	if _, err := m.PlayTrace(0, 0, -1, func(int) Slot { return Slot{} }, nil); err == nil {
		t.Fatal("negative slot count accepted")
	}
	if _, err := m.PlayTrace(0, 0, 1, func(int) Slot { return Slot{Row: 0, OnTime: Nanosecond} }, nil); err == nil {
		t.Fatal("sub-tRAS OnTime accepted")
	}
	if _, err := m.PlayTrace(0, 0, 1, func(int) Slot { return Slot{Row: 0, OnTime: m.Timing.TRAS, ExtraOff: -1} }, nil); err == nil {
		t.Fatal("negative ExtraOff accepted")
	}
	if _, err := m.PlayTrace(0, 0, 1, func(int) Slot { return Slot{Row: -1, OnTime: m.Timing.TRAS} }, nil); err == nil {
		t.Fatal("bad row accepted")
	}
}
